"""Chunked encode/repair/decode: the bulk stripe functions, the streaming loop, chunk edges, atomic outputs, memory."""

import builtins
import io
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmcode
from pmcode import analysis, cli, core
from pmcode.analysis import apply_rows_bulk, chunk_stripes, encode_stripes, random_stripes
from pmcode.cli import main, shard_name
from pmcode.construct import build_sparse_systematic
from pmcode.core import LinearCode
from pmcode.errors import DimensionMismatch
from pmcode.field import field_of_order

from packet_oracle import to_symbols

CHUNK = 16  # stripes per chunk in the edge tests: one GF(2^8) block
PACKET = CHUNK // 8
HEADER = struct.Struct(">8s32sIQQ")


@pytest.fixture(autouse=True)
def small_packets(monkeypatch):
    """GF(2^8) blocks of CHUNK stripes, so that small objects cross block edges."""
    monkeypatch.setattr(analysis, "PACKET", PACKET)


def symbols(field, rows):
    """Stripes as symbols: the virtual symbols of GF(2^8) packets, prime symbols as they are."""
    return to_symbols(rows, PACKET) if field.kind == "binary8" else rows


def run(*argv) -> int:
    return main([str(a) for a in argv])


def set_chunk(monkeypatch, field, rows_in, rows_out, stripes=CHUNK):
    """Patch the kernel budget so a chunk of rows_in + rows_out rows holds ``stripes`` stripes."""
    itemsize = {256: 1, 257: 4}[field.order]  # uint8 packets, int32 prime accumulators
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", itemsize * (rows_in + rows_out) * stripes)
    assert chunk_stripes(field, rows_in, rows_out) == stripes


def shard_rows(path, field, alpha):
    raw = Path(path).read_bytes()
    _, _, node, stripes, plen = HEADER.unpack_from(raw)
    dtype = np.uint8 if field.kind == "binary8" else ">u4"
    return node, stripes, plen, np.frombuffer(raw[HEADER.size :], dtype=dtype).reshape(alpha, stripes)


def test_chunk_stripes_fits_the_budget(monkeypatch):
    gf, fp = field_of_order(256), field_of_order(257)
    budget = analysis._CHUNK_BYTES
    assert chunk_stripes(gf, 36, 78) == budget // (114 * CHUNK) * CHUNK  # whole blocks
    assert chunk_stripes(fp, 30, 60) == budget // 360  # int32 accumulators
    assert chunk_stripes(field_of_order(46337), 30, 60) == budget // 360  # the largest int32 prime
    assert chunk_stripes(field_of_order(46349), 30, 60) == budget // 720  # and the next, int64
    monkeypatch.setattr(analysis, "PACKET", 4096)
    assert chunk_stripes(gf, 36, 78) == 32768  # one block at the real packet size
    assert chunk_stripes(gf, 4, 4) == 16 * 32768
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 10)
    assert chunk_stripes(fp, 30, 60) == 1  # never zero
    assert chunk_stripes(gf, 36, 78) == 32768  # never less than one block


# ---------------------------------------------------------------------------
# bulk stripe functions against the per-stripe reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [256, 257])
def test_bulk_methods_match_per_stripe_paths(q):
    # 45 stripes: over GF(2^8) two blocks, then 8 stripes of 1-byte packets and 5 symbols
    code = build_sparse_systematic(8, 4, 6, field=field_of_order(q))
    p = code.params
    data = random_stripes(p.field, p.B, 45, seed=q)
    stored = encode_stripes(code, data)
    columns = [[int(x) for x in col] for col in symbols(p.field, data).T]
    stored_symbols = symbols(p.field, stored)
    for s, m in enumerate(columns):
        assert [int(x) for x in stored_symbols[:, s]] == code.encode_message(m)

    def node_rows(i, rows=stored):
        return rows[i * p.alpha : (i + 1) * p.alpha]

    failed, helpers = 6, [0, 2, 3, 4, 5, 7]
    plan = code.helper_plan(failed, helpers)
    rebuilt = apply_rows_bulk(p.field, plan.program, np.vstack([node_rows(h)[list(plan.rows)] for h in helpers]))
    assert np.array_equal(rebuilt, node_rows(failed))
    rebuilt = symbols(p.field, rebuilt)
    for s, m in enumerate(columns):
        bundle = code.run_repair(code.stored_rows(m), failed, helpers)
        assert list(bundle.rebuilt) == [int(x) for x in rebuilt[:, s]]

    ids = [1, 4, 6, 7]
    message = apply_rows_bulk(p.field, code.decode_program(ids), np.vstack([node_rows(i) for i in ids]))
    assert np.array_equal(message, data)
    for s, m in enumerate(columns):
        rows = [[int(x) for x in node_rows(i, stored_symbols)[:, s]] for i in ids]
        assert code.decode(ids, rows) == m


def test_bulk_matrices_are_built_once_per_node_set(monkeypatch):
    code = build_sparse_systematic(8, 4, 6, field=field_of_order(256))
    calls = []
    real = type(code).repair_matrix
    monkeypatch.setattr(type(code), "repair_matrix", lambda self, f, h: calls.append(f) or real(self, f, h))
    for _ in range(3):
        code.helper_plan(0, [1, 2, 3, 4, 5, 6])
    assert calls == [0]
    code.helper_plan(0, [1, 2, 3, 4, 5, 7])
    assert calls == [0, 0]
    assert len({id(code.helper_plan(0, [1, 2, 3, 4, 5, 6])) for _ in range(3)}) == 1
    eliminations = []
    real_elimination = core.elimination_program
    monkeypatch.setattr(core, "elimination_program", lambda block: eliminations.append(1) or real_elimination(block))
    for _ in range(3):
        code.decode_program([4, 5, 6, 7])
    assert len(eliminations) == 1
    code.decode_program([3, 5, 6, 7])
    assert len(eliminations) == 2
    assert len({id(code.decode_program([4, 5, 6, 7])) for _ in range(3)}) == 1


# ---------------------------------------------------------------------------
# chunk edges through the command line
# ---------------------------------------------------------------------------

def _payload_sizes(B):
    return [0, 1, B - 1, B, (CHUNK - 1) * B, CHUNK * B, (CHUNK + 1) * B, 3 * CHUNK * B + 5]


@pytest.mark.parametrize("q", [256, 257])
def test_chunk_edges_match_whole_array_oracle(tmp_path, monkeypatch, q):
    gen = tmp_path / "code"
    field_args = ["--gf256"] if q == 256 else ["--q", "257"]
    assert run("gen", "--n", 8, "--k", 4, "--d", 6, *field_args, "--out-dir", gen) == 0
    desc = gen / "descriptor.json"
    code = cli.code_from_descriptor(cli.load_descriptor(desc)[0])
    p = code.params
    rng = random.Random(q)
    for size in _payload_sizes(p.B):
        payload = rng.randbytes(size)
        data, shards = tmp_path / f"{size}.bin", tmp_path / f"shards{size}"
        data.write_bytes(payload)

        set_chunk(monkeypatch, p.field, p.B, p.n * p.alpha)
        assert run("encode", "--descriptor", desc, "--data", data, "--out-dir", shards) == 0
        stripes = max(1, -(-size // p.B))
        message = np.frombuffer(payload.ljust(stripes * p.B, b"\0"), dtype=np.uint8).reshape(stripes, p.B).T
        if q != 256:
            message = message.astype(np.int64)
        expected = encode_stripes(code, message)
        for i in range(p.n):
            node, got_stripes, plen, rows = shard_rows(shards / shard_name(i), p.field, p.alpha)
            assert (node, got_stripes, plen) == (i, stripes, size)
            assert np.array_equal(rows, expected[i * p.alpha : (i + 1) * p.alpha])

        set_chunk(monkeypatch, p.field, p.d * p.alpha, p.d + p.alpha)
        for failed in (0, 7):
            out = tmp_path / f"rebuilt{size}_{failed}.shard"
            assert run("repair", "--descriptor", desc, "--shard-dir", shards,
                       "--failed", failed, "--out", out) == 0
            assert out.read_bytes() == (shards / shard_name(failed)).read_bytes()

        set_chunk(monkeypatch, p.field, p.k * p.alpha, p.B)
        ids = [1, 4, 6, 7]
        out = tmp_path / f"decoded{size}.bin"
        assert run("decode", "--descriptor", desc, "--shard-dir", shards,
                   "--nodes", ",".join(map(str, ids)), "--out", out) == 0
        assert out.read_bytes() == payload
        rows = {i: symbols(p.field, shard_rows(shards / shard_name(i), p.field, p.alpha)[3]) for i in ids}
        message = symbols(p.field, message)
        for s in range(stripes):
            column = code.decode(ids, [[int(x) for x in rows[i][:, s]] for i in ids])
            assert column == [int(x) for x in message[:, s]]  # the padding decodes to zeros


@pytest.mark.parametrize("q", [256, 257])
def test_chunk_budget_does_not_change_the_outputs(tmp_path, monkeypatch, q):
    gen = tmp_path / "code"
    field_args = ["--gf256"] if q == 256 else ["--q", "257"]
    assert run("gen", "--n", 8, "--k", 4, "--d", 6, *field_args, "--out-dir", gen) == 0
    desc = gen / "descriptor.json"
    p = cli.code_from_descriptor(cli.load_descriptor(desc)[0]).params
    payload = random.Random(q).randbytes((5 * CHUNK + 13) * p.B - 7)
    data = tmp_path / "data.bin"
    data.write_bytes(payload)
    reference = None
    for blocks in (1, 2, 3, 64):  # 64 blocks: the whole object in one chunk
        set_chunk(monkeypatch, p.field, p.B, p.n * p.alpha, blocks * CHUNK)
        shards = tmp_path / f"shards{blocks}"
        assert run("encode", "--descriptor", desc, "--data", data, "--out-dir", shards) == 0
        written = [(shards / shard_name(i)).read_bytes() for i in range(p.n)]
        reference = reference or (shards, written)
        assert written == reference[1]

        set_chunk(monkeypatch, p.field, p.d * p.alpha, p.d + p.alpha, blocks * CHUNK)
        rebuilt = tmp_path / f"rebuilt{blocks}.shard"
        assert run("repair", "--descriptor", desc, "--shard-dir", reference[0],
                   "--failed", 5, "--out", rebuilt) == 0
        assert rebuilt.read_bytes() == reference[1][5]

        set_chunk(monkeypatch, p.field, p.k * p.alpha, p.B, blocks * CHUNK)
        decoded = tmp_path / f"decoded{blocks}.bin"
        assert run("decode", "--descriptor", desc, "--shard-dir", reference[0],
                   "--nodes", "3,5,6,7", "--out", decoded) == 0
        assert decoded.read_bytes() == payload


# ---------------------------------------------------------------------------
# atomic outputs
# ---------------------------------------------------------------------------

def _prime_cycle(tmp_path, monkeypatch, stripes=5 * CHUNK):
    gen = tmp_path / "code"
    assert run("gen", "--n", 8, "--k", 4, "--d", 6, "--q", 257, "--out-dir", gen) == 0
    desc = gen / "descriptor.json"
    code = cli.code_from_descriptor(cli.load_descriptor(desc)[0])
    p = code.params
    data, shards = tmp_path / "data.bin", tmp_path / "shards"
    data.write_bytes(random.Random(4).randbytes(stripes * p.B - 3))
    assert run("encode", "--descriptor", desc, "--data", data, "--out-dir", shards) == 0
    return desc, shards, p


def _poke_last_stripe(path, value):
    """Overwrite the last symbol of row 0 (u32 big-endian), which only the last chunk reads."""
    raw = bytearray(path.read_bytes())
    stripes = HEADER.unpack_from(raw)[3]
    struct.pack_into(">I", raw, HEADER.size + 4 * (stripes - 1), value)
    path.write_bytes(raw)


def _leftovers(directory):
    return sorted(p.name for p in Path(directory).iterdir() if p.name.endswith(".tmp"))


@pytest.mark.parametrize(
    "node, value, message",
    [(0, 0xFFFFFFFF, "symbol out of field range"), (0, 256, "exceed byte range")],
    ids=["symbol-above-q", "decoded-above-255"],
)
def test_decode_fails_in_last_chunk_without_output(tmp_path, monkeypatch, capsys, node, value, message):
    desc, shards, p = _prime_cycle(tmp_path, monkeypatch)
    _poke_last_stripe(shards / shard_name(node), value)
    set_chunk(monkeypatch, p.field, p.k * p.alpha, p.B)
    out = tmp_path / "out" / "decoded.bin"
    out.parent.mkdir()
    assert run("decode", "--descriptor", desc, "--shard-dir", shards, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert list(out.parent.iterdir()) == []

    # an existing file at --out is left as it was
    out.write_bytes(b"previous contents")
    assert run("decode", "--descriptor", desc, "--shard-dir", shards, "--out", out) == 2
    assert out.read_bytes() == b"previous contents"
    assert _leftovers(out.parent) == []


def test_repair_fails_in_last_chunk_without_output(tmp_path, monkeypatch, capsys):
    desc, shards, p = _prime_cycle(tmp_path, monkeypatch)
    _poke_last_stripe(shards / shard_name(3), 0xFFFFFFFF)
    (shards / shard_name(7)).unlink()
    set_chunk(monkeypatch, p.field, p.d * p.alpha, p.d + p.alpha)
    assert run("repair", "--descriptor", desc, "--shard-dir", shards, "--failed", 7) == 2
    assert "symbol out of field range" in capsys.readouterr().err
    assert not (shards / shard_name(7)).exists()
    assert _leftovers(shards) == []


def _poke_stripe(path, alpha, stripe, value):
    """Overwrite symbol ``stripe`` of every stored row (u32 big-endian), whichever rows a plan reads."""
    raw = bytearray(path.read_bytes())
    stripes = HEADER.unpack_from(raw)[3]
    for r in range(alpha):
        struct.pack_into(">I", raw, HEADER.size + 4 * (r * stripes + stripe), value)
    path.write_bytes(raw)


def _spy_kernel(monkeypatch):
    """(matrix or program, input, keyword arguments) of each kernel call, as ``analysis.stream`` makes them."""
    calls, real = [], analysis.apply_rows_bulk
    monkeypatch.setattr(analysis, "apply_rows_bulk", lambda *a, **kw: calls.append((a[1], a[2], kw)) or real(*a, **kw))
    return calls


def _assert_one_set_of_buffers(calls):
    """Every chunk slices one input and one output buffer, with one work dict."""
    (_, data0, kw0), *rest = calls
    assert data0.base is not None and kw0["out"].base is not None
    assert all(data.base is data0.base and kw["out"].base is kw0["out"].base and kw["work"] is kw0["work"]
               for _, data, kw in rest)


@pytest.mark.parametrize("value", [257, 0x80000000], ids=["q", "sign-bit"])
@pytest.mark.parametrize("command", ["decode", "repair"])
def test_a_symbol_out_of_range_in_a_middle_chunk_is_refused(tmp_path, monkeypatch, capsys, command, value):
    # the read and output buffers are reused chunk after chunk: every chunk is range-checked
    desc, shards, p = _prime_cycle(tmp_path, monkeypatch)
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 512)
    calls = _spy_kernel(monkeypatch)
    out = tmp_path / "out" / "result"
    out.parent.mkdir()
    argv = [command, "--descriptor", desc, "--shard-dir", shards, "--out", out]
    argv += ["--nodes", "0,1,2,3"] if command == "decode" else ["--failed", 7]
    assert run(*argv) == 0
    widths = [data.shape[1] for _, data, _ in calls]
    assert len(widths) >= 5
    _assert_one_set_of_buffers(calls)
    middle = sum(widths[: len(widths) // 2]) + 1  # a stripe of the middle chunk
    out.unlink()
    _poke_stripe(shards / shard_name(3), p.alpha, middle, value)
    assert run(*argv) == 2
    assert "symbol out of field range" in capsys.readouterr().err
    assert list(out.parent.iterdir()) == []  # no output, no temporary file
    assert _leftovers(shards) == []


@pytest.mark.parametrize("q", [256, 257])
def test_encode_runs_the_loop_of_decode_and_repair(tmp_path, monkeypatch, q):
    # the generator on every chunk, one kernel call per chunk through the same buffers
    gen = tmp_path / "code"
    field_args = ["--gf256"] if q == 256 else ["--q", "257"]
    assert run("gen", "--n", 8, "--k", 4, "--d", 6, *field_args, "--out-dir", gen) == 0
    desc = gen / "descriptor.json"
    code = cli.code_from_descriptor(cli.load_descriptor(desc)[0])
    data, shards = tmp_path / "data.bin", tmp_path / "shards"
    data.write_bytes(random.Random(q).randbytes(5 * CHUNK * code.params.B - 3))
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 512)
    calls = _spy_kernel(monkeypatch)
    assert run("encode", "--descriptor", desc, "--data", data, "--out-dir", shards) == 0
    assert len(calls) >= 5
    assert all(mat == code.generator for mat, _, _ in calls)
    assert sum(data.shape[1] for _, data, _ in calls) == 5 * CHUNK
    _assert_one_set_of_buffers(calls)


PROGRAMS = {
    "generator": lambda code: code.generator,
    "degraded decode": lambda code: code.decode_program([4, 5, 6, 7]),
    "helper plan": lambda code: code.helper_plan(0, [1, 2, 3, 4, 5, 6]).program,
    "rebuild plan": lambda code: code.rebuild_plan(0, [4, 5, 6, 7]).program,
}


@pytest.mark.parametrize("stripes", [1, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK + 11])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("q", [256, 257])
def test_stream_equals_one_whole_array_kernel_call(monkeypatch, q, name, stripes):
    # the library's loop over in-memory stripes, for each kind of program the commands run
    assert CHUNK == 8 * analysis.PACKET
    code = build_sparse_systematic(8, 4, 6, field=field_of_order(q))
    field, program = code.params.field, PROGRAMS[name](code)
    data = random_stripes(field, program.inputs, stripes, stripes)
    expected = apply_rows_bulk(field, program, data)
    set_chunk(monkeypatch, field, program.inputs, program.rows)
    calls, widths, got = _spy_kernel(monkeypatch), [], np.empty_like(expected)

    def source(width):
        widths.append(width)
        return lambda s0, w: data[:, s0 : s0 + w]

    def sink(width):
        widths.append(width)

        def write(s0, outputs):
            got[:, s0 : s0 + outputs.shape[1]] = outputs

        return write

    analysis.stream(field, program, stripes, source, sink)
    assert np.array_equal(got, expected)
    assert widths == [min(CHUNK, stripes)] * 2
    assert [data.shape[1] for _, data, _ in calls] == [min(CHUNK, stripes - s0) for s0 in range(0, stripes, CHUNK)]
    _assert_one_set_of_buffers(calls)


@pytest.mark.parametrize("q", [256, 257])
def test_stream_of_no_stripes_calls_neither_factory(q):
    code = build_sparse_systematic(8, 4, 6, field=field_of_order(q))

    def unused(width):
        raise AssertionError(f"factory called with width {width}")

    analysis.stream(code.params.field, code.generator, 0, unused, unused)


@pytest.mark.parametrize("q", [256, 257])
def test_stream_refuses_a_negative_count_before_either_factory(q):
    code = build_sparse_systematic(8, 4, 6, field=field_of_order(q))

    def unused(width):
        raise AssertionError(f"factory called with width {width}")

    with pytest.raises(DimensionMismatch, match="-3 stripes"):
        analysis.stream(code.params.field, code.generator, -3, unused, unused)


@pytest.mark.parametrize("q", [256, 257])
def test_encode_pads_a_partial_last_chunk_with_zeros(tmp_path, monkeypatch, q):
    # no byte of the input is zero, so a padding byte left over from an earlier chunk would show
    gen = tmp_path / "code"
    field_args = ["--gf256"] if q == 256 else ["--q", "257"]
    assert run("gen", "--n", 8, "--k", 4, "--d", 6, *field_args, "--out-dir", gen) == 0
    desc = gen / "descriptor.json"
    code = cli.code_from_descriptor(cli.load_descriptor(desc)[0])
    p = code.params
    set_chunk(monkeypatch, p.field, p.B, p.n * p.alpha)
    stripes = 3 * CHUNK + 2  # a last chunk of two stripes, the second partial
    payload = bytes(1 + i % 255 for i in range(stripes * p.B - 5))
    data, shards = tmp_path / "data.bin", tmp_path / "shards"
    data.write_bytes(payload)
    assert run("encode", "--descriptor", desc, "--data", data, "--out-dir", shards) == 0
    message = np.frombuffer(payload + bytes(5), dtype=np.uint8).reshape(stripes, p.B).T
    expected = encode_stripes(code, message if q == 256 else message.astype(np.int64))
    for i in range(p.n):
        assert np.array_equal(shard_rows(shards / shard_name(i), p.field, p.alpha)[3],
                              expected[i * p.alpha : (i + 1) * p.alpha])


def test_encode_failure_leaves_no_shards(tmp_path, monkeypatch, capsys):
    gen = tmp_path / "code"
    assert run("gen", "--n", 8, "--k", 4, "--d", 6, "--gf256", "--out-dir", gen) == 0
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(500))
    calls = []

    def failing_kernel(field, mat, chunk, **kw):
        calls.append(chunk.shape)
        if len(calls) == 3:
            raise cli.CliError("injected failure")
        return apply_rows_bulk(field, mat, chunk, **kw)

    monkeypatch.setattr(analysis, "apply_rows_bulk", failing_kernel)
    set_chunk(monkeypatch, field_of_order(256), 12, 24)  # B=12, n*alpha=24
    out = tmp_path / "shards"
    assert run("encode", "--descriptor", gen / "descriptor.json", "--data", data, "--out-dir", out) == 2
    assert "injected failure" in capsys.readouterr().err
    assert len(calls) == 3
    assert list(out.iterdir()) == []


def test_encode_refuses_input_without_a_size(tmp_path, capsys):
    gen = tmp_path / "code"
    assert run("gen", "--n", 8, "--k", 4, "--d", 6, "--gf256", "--out-dir", gen) == 0
    out = tmp_path / "shards"
    assert run("encode", "--descriptor", gen / "descriptor.json", "--data", os.devnull, "--out-dir", out) == 2
    assert "not a regular file" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# repair opens no shard before the helper list is checked
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "failed, helpers",
    [(2, "0,1,3,4,5,6"), (2, "0,0,1,3,4,5"), (2, "2,0,1,3,4,5"), (2, "0,1,3,4,5,8"), (8, "0,1,2,3,4,5")],
    ids=["valid", "repeated", "failed-node-helps", "helper-out-of-range", "failed-out-of-range"],
)
def test_repair_opens_no_shard_before_checking_helpers(tmp_path, monkeypatch, failed, helpers):
    gen = tmp_path / "code"
    assert run("gen", "--n", 8, "--k", 4, "--d", 6, "--gf256", "--out-dir", gen) == 0
    data = tmp_path / "data.bin"
    data.write_bytes(b"payload" * 50)
    shards = tmp_path / "shards"
    assert run("encode", "--descriptor", gen / "descriptor.json", "--data", data, "--out-dir", shards) == 0

    events = []
    real_check = LinearCode.check_repair_args
    real_os_open, real_io_open = os.open, io.open

    def check(self, f, h):
        events.append("check")
        return real_check(self, f, h)

    def opened(path):
        if str(path).endswith(".shard"):
            events.append(f"open {Path(path).name}")

    def os_open(path, *args, **kwargs):
        opened(path)
        return real_os_open(path, *args, **kwargs)

    def io_open(file, *args, **kwargs):
        opened(file)
        return real_io_open(file, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "check_repair_args", check)
    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(io, "open", io_open)
    monkeypatch.setattr(builtins, "open", io_open)
    code = run("repair", "--descriptor", gen / "descriptor.json", "--shard-dir", shards,
               "--failed", failed, "--helpers", helpers, "--out", tmp_path / "rebuilt.shard")
    assert events and events[0] == "check"
    if helpers == "0,1,3,4,5,6":
        assert code == 0 and len([e for e in events if e.startswith("open")]) == 6
    else:
        assert code == 2 and events == ["check"]


# ---------------------------------------------------------------------------
# peak memory does not grow with the object
# ---------------------------------------------------------------------------

# A child's peak RSS starts from its parent's at exec, so a small launcher
# process runs each command and reports the command's ru_maxrss from os.wait4.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _peak_rss_kib(*argv) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(pmcode.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "pmcode.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, check=True,
    )
    status, maxrss = result.stdout.split()
    assert status == "0", result.stderr
    return int(maxrss)


def test_peak_rss_does_not_grow_with_the_object(tmp_path):
    gen = tmp_path / "code"
    assert run("gen", "--n", 12, "--k", 6, "--d", 10, "--q", 257, "--out-dir", gen) == 0
    desc = gen / "descriptor.json"
    peaks = {}
    for mib in (8, 24):
        data = tmp_path / f"{mib}.bin"
        data.write_bytes(random.Random(mib).randbytes(mib << 20))
        shards, out = tmp_path / f"shards{mib}", tmp_path / f"out{mib}.bin"
        encode = _peak_rss_kib("encode", "--descriptor", desc, "--data", data, "--out-dir", shards)
        decode = _peak_rss_kib("decode", "--descriptor", desc, "--shard-dir", shards,
                               "--nodes", "6,7,8,9,10,11", "--out", out)
        assert out.read_bytes() == data.read_bytes()
        peaks[mib] = (encode, decode)
        data.unlink()
        out.unlink()
    for small, large in zip(peaks[8], peaks[24]):
        assert abs(large - small) < 10 * 1024, peaks
