"""Command-line front end.

Subcommands:

* ``gen``      build a code and write its matrices plus a descriptor
* ``encode``   split a data file into per-node shard files
* ``repair``   rebuild one node's shard from d helper shards
* ``decode``   recover the data file from any k shards
* ``certify``  re-check reconstruction, repair, and systematic form
* ``analyze``  print a generator sparsity report
* ``bench``    time sparse vs dense encoding on a seeded workload

The descriptor (``descriptor.json``) pins everything needed to rebuild the
code deterministically: parameters, field, construction route, seed, the
evaluation points actually chosen, and sha256 hashes of the generated matrix
files.  Shard files carry a fixed 60-byte header::

    magic "PMSHARD1" | sha256(descriptor file) | node id u32 BE
    | stripe count u64 BE | payload byte length u64 BE

followed by alpha rows of ``stripes`` symbols each: 1 byte per symbol for
the 256-element binary field, u32 big-endian per symbol for prime fields.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    apply_rows_bulk,
    benchmark_pair,
    certify,
    encode_stripes,
    sparsity_report,
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
from .linalg import Matrix

DESCRIPTOR_FORMAT = "pmcode-descriptor-v1"
MAGIC = b"PMSHARD1"
_HEADER = struct.Struct(">8s32sIQQ")

# top-level keys code_from_descriptor reads, with their JSON types
_DESCRIPTOR_KEYS = {
    "n": int, "k": int, "d": int, "seed": int,
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

def _field_from_args(args):
    if args.gf256:
        return BinaryField(GF256_DEFAULT_POLY)
    if args.q is not None:
        return PrimeField(args.q)
    return None  # builders pick the smallest workable prime


def _field_to_json(field) -> dict:
    if field.kind == "binary8":
        return {"kind": "binary8", "poly": field.poly}
    return {"kind": "prime", "q": field.q}


def _field_from_json(fd: dict):
    try:
        return BinaryField(fd["poly"]) if fd["kind"] == "binary8" else PrimeField(fd["q"])
    except ValueError as exc:
        raise CliError(f"descriptor field: {exc}") from exc


def generation_artifacts(code) -> dict[str, str]:
    """The text files gen writes: encoding matrix, pre-remap generator, g_sys."""
    enc = underlying_encoding(code)
    base = code.parent.base if isinstance(code, ShortenedCode) else code.base
    return {
        "psi.txt": enc.psi.to_text(),
        "g.txt": base.generator.to_text(),
        "g_sys.txt": code.generator.to_text(),
    }


def descriptor_for(code, construction: str, seed: int) -> dict:
    p = code.params
    enc = underlying_encoding(code)
    desc = {
        "format": DESCRIPTOR_FORMAT,
        "n": p.n,
        "k": p.k,
        "d": p.d,
        "construction": construction,
        "seed": seed,
        "field": _field_to_json(p.field),
        "xs": list(enc.xs),
        "parent": None,
        "hashes": {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in generation_artifacts(code).items()
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
    if desc.get("format") != DESCRIPTOR_FORMAT:
        raise CliError(f"unsupported descriptor format {desc.get('format')!r}")
    for key, kind in _DESCRIPTOR_KEYS.items():
        if key not in desc:
            raise CliError(f"descriptor is missing {key!r}")
        if type(desc[key]) is not kind:
            raise CliError(f"descriptor {key!r} must be a JSON {kind.__name__}, got {desc[key]!r}")
    fd = desc["field"]
    number = _FIELD_NUMBER.get(fd.get("kind"))
    if number is None:
        raise CliError(f"unknown field kind {fd.get('kind')!r}")
    if type(fd.get(number)) is not int:
        raise CliError(f"descriptor field of kind {fd['kind']!r} needs an integer {number!r}")


def load_descriptor(path) -> tuple[dict, bytes]:
    """Read a descriptor file; returns (parsed JSON, sha256 of the raw bytes)."""
    raw = Path(path).read_bytes()
    try:
        desc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError(f"descriptor is not valid JSON: {exc}") from exc
    return desc, hashlib.sha256(raw).digest()


def code_from_descriptor(desc: dict):
    """Schema-check the descriptor, rebuild the code and verify it matches."""
    _check_descriptor(desc)
    construction = desc["construction"]
    if construction not in _BUILDERS:
        raise CliError(f"unknown construction {construction!r}")
    field = _field_from_json(desc["field"])
    code = _BUILDERS[construction](desc["n"], desc["k"], desc["d"], field=field, seed=desc["seed"])
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
    return _BUILDERS[args.construction](args.n, args.k, args.d, field=_field_from_args(args), seed=args.seed)


# ---------------------------------------------------------------------------
# shard files
# ---------------------------------------------------------------------------

def shard_name(node: int) -> str:
    return f"node_{node:03d}.shard"


def _symbol_dtype(field):
    return np.dtype(np.uint8) if field.kind == "binary8" else np.dtype(">u4")


def _stripe_count(payload_len: int, B: int) -> int:
    """Stripes of B symbols that carry payload_len bytes; an empty payload takes one."""
    return max(1, -(-payload_len // B))


def write_shard(path, digest: bytes, node: int, stripes: int, payload_len: int, rows: np.ndarray, field) -> None:
    body = np.ascontiguousarray(rows, dtype=_symbol_dtype(field))  # copies only to convert
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, digest, node, stripes, payload_len))
        fh.write(body)


def read_shard(path, digest: bytes, field, alpha: int):
    """Parse and validate one shard; returns (node, stripes, payload_len, rows)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise CliError(f"{path}: truncated shard header")
    magic, got_digest, node, stripes, payload_len = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CliError(f"{path}: not a shard file")
    if got_digest != digest:
        raise CliError(f"{path}: shard belongs to a different descriptor")
    body = memoryview(raw)[_HEADER.size :]
    dtype = _symbol_dtype(field)
    expected = alpha * stripes * dtype.itemsize
    if len(body) != expected:
        raise CliError(f"{path}: shard body is {len(body)} bytes, expected {expected}")
    rows = np.frombuffer(body, dtype=dtype).reshape(alpha, stripes)
    if field.kind != "binary8":
        rows = rows.astype(np.int64)
        if rows.max(initial=0) >= field.q:
            raise CliError(f"{path}: symbol out of field range")
    return node, stripes, payload_len, rows


def _scan_shards(shard_dir) -> dict[int, Path]:
    found = {}
    for p in sorted(Path(shard_dir).glob("node_*.shard")):
        try:
            found[int(p.stem.split("_")[1])] = p
        except (IndexError, ValueError):
            continue
    if not found:
        raise CliError(f"no node_*.shard files in {shard_dir}")
    return found


def _read_nodes(shard_dir, shards: dict, ids, digest: bytes, params, role: str):
    """Yield (stripes, payload_len, rows) for each id in turn.

    Every header must name its node and agree with the first shard's
    geometry, whose payload length must fit its stripe count.
    """
    geometry = None
    for i in ids:
        if i not in shards:
            raise CliError(f"{role} {i} has no shard in {shard_dir}")
        node, stripes, payload_len, rows = read_shard(shards[i], digest, params.field, params.alpha)
        if node != i:
            raise CliError(f"{shards[i]}: header says node {node}")
        if geometry is None:
            if stripes != _stripe_count(payload_len, params.B):
                raise CliError(
                    f"{shards[i]}: payload length {payload_len} does not fit "
                    f"{stripes} stripes of {params.B} bytes"
                )
            geometry = (stripes, payload_len)
        elif (stripes, payload_len) != geometry:
            raise CliError(f"{shards[i]}: stripe geometry differs from other {role}s")
        yield stripes, payload_len, rows


def _parse_ids(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise CliError(f"bad node list {text!r}; expected comma-separated integers") from exc


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
    code = _BUILDERS[args.construction](
        args.n, args.k, args.d, field=_field_from_args(args), seed=args.seed
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = generation_artifacts(code)
    for name, text in artifacts.items():
        (out / name).write_text(text)
    desc = descriptor_for(code, args.construction, args.seed)
    (out / "descriptor.json").write_bytes(descriptor_bytes(desc))
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
    data = Path(args.data).read_bytes()
    stripes = _stripe_count(len(data), p.B)
    padded = data.ljust(stripes * p.B, b"\0")
    arr = np.frombuffer(padded, dtype=np.uint8).reshape(stripes, p.B).T
    if p.field.kind != "binary8":
        arr = np.ascontiguousarray(arr, dtype=np.int64)
    out_rows = encode_stripes(code, arr)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    alpha = p.alpha
    for i in range(p.n):
        write_shard(
            out / shard_name(i), digest, i, stripes, len(data),
            out_rows[i * alpha : (i + 1) * alpha], p.field,
        )
    print(f"encoded {len(data)} bytes into {p.n} shards of {stripes} stripes in {out}")
    return 0


def cmd_repair(args) -> int:
    desc, digest = load_descriptor(args.descriptor)
    code = code_from_descriptor(desc)
    p = code.params
    shards = _scan_shards(args.shard_dir)
    failed = args.failed
    if args.helpers:
        helpers = _parse_ids(args.helpers)
    else:
        helpers = [i for i in sorted(shards) if i != failed][: p.d]
    try:
        code.check_repair_args(failed, helpers)
    except (BadHelperCount, IndexOutOfRange) as exc:
        raise CliError(f"cannot repair node {failed}: {exc}") from exc
    transfers = []
    rv = Matrix(p.field, [code.repair_vector(failed)])
    for stripes, payload_len, rows in _read_nodes(args.shard_dir, shards, helpers, digest, p, "helper"):
        transfers.append(apply_rows_bulk(p.field, rv, rows)[0])
    t = code.repair_matrix(failed, helpers)
    rebuilt = apply_rows_bulk(p.field, t, np.array(transfers))
    out = Path(args.out or Path(args.shard_dir) / shard_name(failed))
    write_shard(out, digest, failed, stripes, payload_len, rebuilt, p.field)
    print(f"rebuilt node {failed} from helpers {','.join(str(h) for h in helpers)} -> {out}")
    return 0


def cmd_decode(args) -> int:
    desc, digest = load_descriptor(args.descriptor)
    code = code_from_descriptor(desc)
    p = code.params
    shards = _scan_shards(args.shard_dir)
    ids = _parse_ids(args.nodes) if args.nodes else sorted(shards)[: p.k]
    if len(ids) != p.k:
        raise CliError(f"need exactly k={p.k} nodes, got {len(ids)}")
    try:
        code.check_decode_args(ids)
    except (BadCount, IndexOutOfRange) as exc:
        raise CliError(f"bad node list {args.nodes!r}: {exc}") from exc
    stacked = []
    for _, payload_len, rows in _read_nodes(args.shard_dir, shards, ids, digest, p, "node"):
        stacked.append(rows)
    block = Matrix.vstack([code.node_block(i) for i in ids])
    message = apply_rows_bulk(p.field, block.inverse(), np.vstack(stacked))
    if message.max(initial=0) > 255:
        raise CliError("decoded symbols exceed byte range; shards are inconsistent")
    data = np.ascontiguousarray(message.T, dtype=np.uint8).reshape(-1)
    Path(args.out).write_bytes(memoryview(data)[:payload_len])
    print(f"decoded {payload_len} bytes from nodes {','.join(str(i) for i in ids)} -> {args.out}")
    return 0


def cmd_certify(args) -> int:
    code = _code_from_selection(args)
    record = certify(
        code,
        seed=args.seed,
        subset_limit=args.subset_limit,
        samples=args.samples,
        decode_samples=args.decode_samples,
        repair_limit=args.repair_limit,
    )
    if args.tsv:
        print("\n".join(record.to_tsv_rows()))
    else:
        print(record.to_text(), end="")
    return 0 if record.passed else 1


def cmd_analyze(args) -> int:
    code = _code_from_selection(args)
    report = sparsity_report(code)
    if args.tsv:
        print("\n".join(report.to_tsv_rows()))
    else:
        print(report.to_text(), end="")
    return 0


def cmd_bench(args) -> int:
    field = _field_from_args(args)
    sparse = build_sparse_systematic(args.n, args.k, args.d, field=field, seed=args.seed)
    dense = build_vanilla_systematic(args.n, args.k, args.d, field=field, seed=args.seed)
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
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_gen)

    sub = subs.add_parser("encode", help="split a file into per-node shards")
    sub.add_argument("--descriptor", required=True)
    sub.add_argument("--data", required=True)
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=cmd_encode)

    sub = subs.add_parser("repair", help="rebuild one node's shard from d helpers")
    sub.add_argument("--descriptor", required=True)
    sub.add_argument("--shard-dir", required=True)
    sub.add_argument("--failed", type=int, required=True)
    sub.add_argument("--helpers", help="comma-separated helper ids (default: first d present)")
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
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--tsv", action="store_true")
        if name == "certify":
            sub.add_argument("--subset-limit", type=int, default=1000)
            sub.add_argument("--samples", type=int, default=50)
            sub.add_argument("--decode-samples", type=int, default=10)
            sub.add_argument("--repair-limit", type=int, default=1000)
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
