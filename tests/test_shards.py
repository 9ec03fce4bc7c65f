"""The shard format through ``pmcode.shards`` alone: headers, layouts, rows, byte order and range."""

import os
import struct

import numpy as np
import pytest

from pmcode import analysis, shards
from pmcode.analysis import kernel_dtype
from pmcode.errors import CliError
from pmcode.field import field_of_order

DIGEST = bytes(range(32))
ALPHA, STRIPES, WIDTH = 3, 40, 16  # chunks of 16, 16 and 8 stripes
LAYOUTS = {256: "packets", 257: "u32be"}


@pytest.fixture(params=sorted(LAYOUTS), ids=LAYOUTS.values())
def field(request):
    return field_of_order(request.param)


def write_shard(path, field, rows, node=5, payload_len=123):
    """A shard of ``rows`` (ALPHA x STRIPES, kernel dtype), written chunk by chunk."""
    with shards.atomic_output(path) as fd:
        shards.write_header(fd, DIGEST, node, STRIPES, payload_len)
        write = shards.row_sink([fd], ALPHA, field, STRIPES, WIDTH)
        for s0 in range(0, STRIPES, WIDTH):
            write(s0, rows[:, s0 : s0 + WIDTH])


def random_rows(field, seed=0):
    high = 256 if field.kind == "binary8" else field.q
    return np.random.default_rng(seed).integers(0, high, size=(ALPHA, STRIPES)).astype(kernel_dtype(field))


def test_the_layout_names_its_kind_and_reads_the_packet_size_when_called(field, monkeypatch):
    monkeypatch.setattr(analysis, "PACKET", 2)
    expected = {"kind": "packets", "packet_bytes": 2} if field.kind == "binary8" else {"kind": "u32be"}
    assert shards.shard_layout(field) == expected
    assert shards.shard_layout(field)["kind"] == LAYOUTS[field.order]


def test_header_and_rows_round_trip(tmp_path, field):
    rows = random_rows(field)
    path = tmp_path / shards.shard_name(5)
    write_shard(path, field, rows)
    raw = path.read_bytes()
    assert raw[: shards.HEADER.size] == struct.pack(">8s32sIQQ", b"PMSHARD1", DIGEST, 5, STRIPES, 123)
    # alpha rows of STRIPES symbols: bytes as they are, or u32 big-endian
    assert raw[shards.HEADER.size :] == rows.astype(shards.shard_dtype(field)).tobytes()
    fd = os.open(path, os.O_RDONLY)
    try:
        assert shards.read_header(fd, path, DIGEST, field, ALPHA) == (5, STRIPES, 123)
        with pytest.raises(CliError, match="different descriptor"):
            shards.read_header(fd, path, bytes(32), field, ALPHA)
        with pytest.raises(CliError, match="shard body is"):
            shards.read_header(fd, path, DIGEST, field, ALPHA + 1)
    finally:
        os.close(fd)


def test_a_selected_subset_of_rows_is_read_over_a_middle_chunk_in_native_order(tmp_path, field):
    rows = random_rows(field, seed=1)
    path = tmp_path / "node.shard"
    write_shard(path, field, rows)
    fd = os.open(path, os.O_RDONLY)
    try:
        read = shards.row_source([(path, fd)], [2, 0], field, STRIPES, WIDTH)
        first = read(0, WIDTH)
        middle = read(WIDTH, WIDTH)
        assert middle.dtype == kernel_dtype(field)  # native int32 over F_257, swapped from u32be
        assert np.array_equal(middle, rows[[2, 0], WIDTH : 2 * WIDTH])
        last = read(2 * WIDTH, STRIPES - 2 * WIDTH)
        assert np.array_equal(last, rows[[2, 0], 2 * WIDTH :])
        # every chunk is a column slice of one buffer, swapped in place
        assert np.shares_memory(first, middle) and np.shares_memory(middle, last)
    finally:
        os.close(fd)


@pytest.mark.parametrize("value", [257, 0x80000000], ids=["q", "sign-bit"])
def test_a_u32be_symbol_out_of_range_is_refused(tmp_path, value):
    field = field_of_order(257)
    path = tmp_path / "node.shard"
    write_shard(path, field, random_rows(field, seed=2))
    raw = bytearray(path.read_bytes())
    struct.pack_into(">I", raw, shards.HEADER.size + 4 * (2 * STRIPES + WIDTH + 3), value)  # row 2, middle chunk
    path.write_bytes(raw)
    fd = os.open(path, os.O_RDONLY)
    try:
        read = shards.row_source([(path, fd)], [0, 2], field, STRIPES, WIDTH)
        read(0, WIDTH)
        with pytest.raises(CliError, match="symbol out of field range"):
            read(WIDTH, WIDTH)
    finally:
        os.close(fd)


def test_a_v1_prime_layout_is_accepted_and_a_v1_gf256_layout_refused():
    v1 = {"format": shards.DESCRIPTOR_V1}
    shards.check_layout(v1, field_of_order(257))
    with pytest.raises(CliError, match="byte layout this version no longer reads"):
        shards.check_layout(v1, field_of_order(256))
    v2 = {"format": "pmcode-descriptor-v2", "layout": {"kind": "u32be"}}
    shards.check_layout(v2, field_of_order(257))
    with pytest.raises(CliError, match="re-encode the data"):
        shards.check_layout(v2, field_of_order(256))
