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
of the generated matrix files, and the shard ``layout``.  Older descriptors
also carry a ``seed``, which is ignored.  The shard format, its reads and
writes and the atomic outputs are ``pmcode.shards``.

``encode``, ``repair`` and ``decode`` run the library's streaming loop,
``analysis.stream``, with the generator, a repair plan's program or
``LinearCode.decode_program`` between a source and a sink of
``pmcode.shards`` (the data file's or the shards' stripes), so their peak
memory is bounded by a chunk, not by the object.  ``decode`` reads every
row of its k shards.  ``repair`` takes ``LinearCode.repair_plan``,
the cheaper of d helpers, which send the rows their repair vector names, and
k nodes, which send all their rows; a ``--helpers`` list takes the first.  It
prints the symbols per stripe it read beside the d that the helpers send.  An
empty ``--nodes`` or ``--helpers`` list is refused, and so is an output that
is a directory or one of the command's own inputs (the data file or a shard
it reads, or the descriptor), before anything is written.  ``decode`` also
checks that the last stripe's bytes past the payload length decode to zero.
This module parses arguments, loads the descriptor, opens and names files
and prints; it does no field arithmetic and imports no numpy itself.  Only
``certify``, ``analyze`` and ``bench`` import ``pmcode.report``.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import stat
import sys
from contextlib import ExitStack
from functools import partial
from pathlib import Path

# pmcode never calls BLAS; stop numpy's OpenBLAS, which shards loads, from starting a thread pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import shards
from .analysis import stream
from .construct import (
    build_rbt_systematic,
    build_sparse_systematic,
    build_vanilla_systematic,
)
from .errors import BadCount, BadHelperCount, CliError, IndexOutOfRange, PmCodeError
from .field import GF256_DEFAULT_POLY, BinaryField, PrimeField
from .linalg import kernel_cost
from .shards import DESCRIPTOR_V1, shard_name

DESCRIPTOR_FORMAT = "pmcode-descriptor-v2"

# top-level keys code_from_descriptor reads, with their JSON types
_DESCRIPTOR_KEYS = {
    "n": int, "k": int, "d": int,
    "construction": str, "field": dict, "xs": list, "hashes": dict,
}
# each field kind: the descriptor key of the number that pins it, and its class
_FIELDS = {"binary8": ("poly", BinaryField), "prime": ("q", PrimeField)}

_BUILDERS = {
    "vanilla": build_vanilla_systematic,
    "sparse": build_sparse_systematic,
    "rbt": build_rbt_systematic,
}


# ---------------------------------------------------------------------------
# descriptor
# ---------------------------------------------------------------------------

def _make_field(kind: str, number: int, source: str):
    """The field of ``kind`` pinned by ``number``; a bad number is a CliError naming ``source``."""
    try:
        return _FIELDS[kind][1](number)
    except ValueError as exc:
        raise CliError(f"{source}: {exc}") from exc


def _field_from_args(args):
    if args.gf256:
        return _make_field("binary8", GF256_DEFAULT_POLY, "--gf256")
    if args.q is not None:
        return _make_field("prime", args.q, "--q")
    return None  # builders pick the smallest workable prime


def generation_artifacts(code) -> dict[str, str]:
    """The text files gen writes: encoding matrix, pre-remap generator, g_sys."""
    return {
        "psi.txt": code.enc.psi.to_text(),
        "g.txt": code.base.generator.to_text(),
        "g_sys.txt": code.generator.to_text(),
    }


def descriptor_for(code, construction: str, artifacts: dict[str, str]) -> dict:
    """The descriptor of ``code``, hashing its ``generation_artifacts``."""
    p, parent = code.params, code.base.params
    key = _FIELDS[p.field.kind][0]
    return {
        "format": DESCRIPTOR_FORMAT,
        "n": p.n,
        "k": p.k,
        "d": p.d,
        "construction": construction,
        "field": {"kind": p.field.kind, key: getattr(p.field, key)},
        "layout": shards.shard_layout(p.field),
        "xs": list(code.enc.xs),
        "parent": {"n": parent.n, "k": parent.k, "d": parent.d} if code.depth else None,
        "hashes": {
            name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in artifacts.items()
        },
    }


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
    if type(fd.get("kind")) is not str or fd["kind"] not in _FIELDS:
        raise CliError(f"unknown field kind {fd.get('kind')!r}")
    number = _FIELDS[fd["kind"]][0]
    if type(fd.get(number)) is not int:
        raise CliError(f"descriptor field of kind {fd['kind']!r} needs an integer {number!r}")


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
    fd = desc["field"]
    field = _make_field(fd["kind"], fd[_FIELDS[fd["kind"]][0]], "descriptor field")
    shards.check_layout(desc, field)
    code = _BUILDERS[construction](desc["n"], desc["k"], desc["d"], field=field)
    if list(code.enc.xs) != list(desc["xs"]):
        raise CliError("rebuilt code uses different evaluation points than the descriptor")
    for name, text in generation_artifacts(code).items():
        if hashlib.sha256(text.encode()).hexdigest() != desc["hashes"].get(name):
            raise CliError(f"rebuilt {name} does not match the descriptor hash")
    return code


def _code_from_selection(args):
    """Build from --descriptor if given, else from the explicit parameters."""
    if args.descriptor:
        return _load(args)[0]
    if args.n is None or args.k is None or args.d is None:
        raise CliError("provide either --descriptor or all of --n/--k/--d")
    return _BUILDERS[args.construction](args.n, args.k, args.d, field=_field_from_args(args))


def _load(args):
    """The code of ``--descriptor`` and the sha256 of the descriptor file, which its shards carry."""
    desc, digest = load_descriptor(args.descriptor)
    return code_from_descriptor(desc), digest


# ---------------------------------------------------------------------------
# inputs and outputs
# ---------------------------------------------------------------------------

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


def _parse_ids(text: str) -> list[int]:
    """The comma-separated node ids of ``text``; none at all is a CliError, not a default."""
    try:
        ids = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        ids = []
    if not ids:
        raise CliError(f"bad node list {text!r}; expected comma-separated integers")
    return ids


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
        with shards.atomic_output(out / name) as fd:
            shards.pwrite_all(fd, memoryview(raw), 0)
    print(f"wrote descriptor.json, {', '.join(artifacts)} to {out} ({code.params}, {args.construction})")
    return 0


def cmd_encode(args) -> int:
    code, digest = _load(args)
    p = code.params
    if p.field.kind != "binary8" and p.field.q < 257:
        raise CliError(f"field of order {p.field.q} cannot carry arbitrary bytes; "
                       "use --gf256 or a prime of at least 257 when encoding files")
    out = Path(args.out_dir)
    with open(args.data, "rb", buffering=0) as src, ExitStack() as stack:
        st = os.fstat(src.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise CliError(f"{args.data}: not a regular file; the stripe count needs its size up front")
        size = st.st_size
        out.mkdir(parents=True, exist_ok=True)
        for i in range(p.n):
            _refuse_overwriting(out / shard_name(i), args.descriptor, [(args.data, src.fileno())])
        stripes = shards.stripe_count(size, p.B)
        fds = [stack.enter_context(shards.atomic_output(out / shard_name(i))) for i in range(p.n)]
        for i, fd in enumerate(fds):
            shards.write_header(fd, digest, i, stripes, size)
        stream(p.field, code.generator, stripes, partial(shards.data_source, src, size, p.field, p.B),
               partial(shards.row_sink, fds, p.alpha, p.field, stripes))
    print(f"encoded {size} bytes into {p.n} shards of {stripes} stripes in {out}")
    return 0


def cmd_repair(args) -> int:
    code, digest = _load(args)
    p = code.params
    found = shards.scan(args.shard_dir, p.n)
    failed = args.failed
    try:
        if args.helpers is None:
            plan = code.repair_plan(failed, sorted(found))
        else:
            plan = code.helper_plan(failed, _parse_ids(args.helpers))
    except (BadCount, BadHelperCount, IndexOutOfRange) as exc:
        raise CliError(f"cannot repair node {failed}: {exc}") from exc
    out = Path(args.out or Path(args.shard_dir) / shard_name(failed))
    role = "node" if plan.rebuild else "helper"
    with ExitStack() as stack:
        sources, stripes, payload_len = shards.open_nodes(stack, args.shard_dir, found, plan.nodes, digest, p, role)
        _refuse_overwriting(out, args.descriptor, sources)
        fd = stack.enter_context(shards.atomic_output(out))
        shards.write_header(fd, digest, failed, stripes, payload_len)
        stream(p.field, plan.program, stripes, partial(shards.row_source, sources, plan.rows, p.field, stripes),
               partial(shards.row_sink, [fd], p.alpha, p.field, stripes))
    nodes = ",".join(str(i) for i in plan.nodes)
    if plan.rebuild:
        selected = len(code.helper_rows(failed))
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
    code, digest = _load(args)
    p = code.params
    found = shards.scan(args.shard_dir, p.n)
    ids = _parse_ids(args.nodes) if args.nodes is not None else sorted(found)[: p.k]
    if len(ids) != p.k:
        raise CliError(f"need exactly k={p.k} nodes, got {len(ids)}")
    try:
        program = code.decode_program(ids)
    except (BadCount, IndexOutOfRange) as exc:
        raise CliError(f"bad node list {args.nodes!r}: {exc}") from exc
    with ExitStack() as stack:
        sources, stripes, payload_len = shards.open_nodes(stack, args.shard_dir, found, ids, digest, p, "node")
        _refuse_overwriting(args.out, args.descriptor, sources)
        fd = stack.enter_context(shards.atomic_output(args.out))
        stream(p.field, program, stripes, partial(shards.row_source, sources, range(p.alpha), p.field, stripes),
               partial(shards.data_sink, fd, payload_len, p.B))
    print(f"decoded {payload_len} bytes from nodes {','.join(str(i) for i in ids)} -> {args.out}")
    return 0


def _print_report(report, tsv: bool) -> None:
    """Print a certification or sparsity report as text, or one TSV line per row."""
    if tsv:
        print("\n".join(report.to_tsv_rows()))
    else:
        print(report.to_text(), end="")


def cmd_certify(args) -> int:
    from .report import certify
    record = certify(_code_from_selection(args), seed=args.seed)
    _print_report(record, args.tsv)
    return 0 if record.passed else 1


def cmd_analyze(args) -> int:
    from .report import sparsity_report
    _print_report(sparsity_report(_code_from_selection(args)), args.tsv)
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
    except (PmCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
