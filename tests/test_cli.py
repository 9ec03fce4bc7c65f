import json
import os
import random
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmcode import analysis, cli
from pmcode import shards as shard_format
from pmcode.cli import (
    code_from_descriptor,
    load_descriptor,
    main,
    shard_name,
)
from pmcode.construct import build_sparse_systematic, build_vanilla_systematic
from pmcode.field import field_of_order
from pmcode.linalg import Matrix

from golden_vectors import G_SPARSE_SYS, G_SYS, PSI, PSI_SPARSE


def run(*argv) -> int:
    return main([str(a) for a in argv])


def gen_dir(tmp_path, name, *argv) -> Path:
    out = tmp_path / name
    assert run("gen", "--out-dir", out, *argv) == 0
    return out


def test_gen_writes_reference_matrices(tmp_path):
    f11 = field_of_order(11)
    out = gen_dir(tmp_path, "vanilla", "--n", 8, "--k", 4, "--d", 6, "--q", 11,
                  "--construction", "vanilla")
    assert (out / "psi.txt").read_text() == Matrix(f11, PSI).to_text()
    assert (out / "g_sys.txt").read_text() == Matrix(f11, G_SYS).to_text()

    out = gen_dir(tmp_path, "sparse", "--n", 8, "--k", 4, "--d", 6, "--q", 11)
    assert (out / "psi.txt").read_text() == Matrix(f11, PSI_SPARSE).to_text()
    assert (out / "g_sys.txt").read_text() == Matrix(f11, G_SPARSE_SYS).to_text()

    desc = json.loads((out / "descriptor.json").read_text())
    assert desc["construction"] == "sparse"
    assert desc["field"] == {"kind": "prime", "q": 11}
    assert desc["xs"] == list(range(1, 9))
    assert desc["parent"] is None


def test_gen_is_deterministic(tmp_path):
    argv = ("--n", 12, "--k", 5, "--d", 10, "--construction", "sparse")
    a = gen_dir(tmp_path, "a", *argv)
    b = gen_dir(tmp_path, "b", *argv)
    for name in ("descriptor.json", "psi.txt", "g.txt", "g_sys.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    desc = json.loads((a / "descriptor.json").read_text())
    # auto-picked field and the shortening parent are recorded
    assert desc["field"] == {"kind": "prime", "q": 29}
    assert desc["parent"] == {"n": 14, "k": 7, "d": 12}


def test_descriptor_rebuild_round_trip(tmp_path):
    out = gen_dir(tmp_path, "g", "--n", 10, "--k", 5, "--d", 8, "--gf256")
    desc, _ = load_descriptor(out / "descriptor.json")
    code = code_from_descriptor(desc)
    reference = build_sparse_systematic(10, 5, 8, field=field_of_order(256))
    assert code.generator == reference.generator


@pytest.mark.parametrize(
    "params",
    [("--n", 13, "--k", 6, "--d", 11, "--gf256"), ("--n", 12, "--k", 6, "--d", 10, "--q", 257)],
    ids=["13-6-11-gf256", "12-6-10-f257"],
)
def test_descriptor_with_a_seed_still_works_and_gen_takes_no_seed(tmp_path, capsys, params):
    # descriptors written while gen took --seed carry a "seed" key the code never used
    out = gen_dir(tmp_path, "g", *params)
    plain = out / "descriptor.json"
    desc = json.loads(plain.read_text())
    assert "seed" not in desc
    seeded = out / "seeded.json"
    seeded.write_bytes(cli.descriptor_bytes({**desc, "seed": 7}))
    data = tmp_path / "data.bin"
    payload = random.Random(7).randbytes(3001)
    data.write_bytes(payload)
    n, k = desc["n"], desc["k"]
    plain_shards, shards = tmp_path / "plain", tmp_path / "seeded"
    for path, shard_dir in ((plain, plain_shards), (seeded, shards)):
        assert run("encode", "--descriptor", path, "--data", data, "--out-dir", shard_dir) == 0
    for i in range(n):  # the same bodies; the headers hold the descriptor's digest
        a, b = ((shard_dir / shard_name(i)).read_bytes() for shard_dir in (plain_shards, shards))
        assert a[shard_format.HEADER.size :] == b[shard_format.HEADER.size :]

    original = (shards / shard_name(n - 1)).read_bytes()
    (shards / shard_name(n - 1)).unlink()
    assert run("repair", "--descriptor", seeded, "--shard-dir", shards, "--failed", n - 1) == 0
    assert (shards / shard_name(n - 1)).read_bytes() == original
    recovered = tmp_path / "out.bin"
    assert run("decode", "--descriptor", seeded, "--shard-dir", shards,
               "--nodes", ",".join(str(i) for i in range(n - k, n)), "--out", recovered) == 0
    assert recovered.read_bytes() == payload

    with pytest.raises(SystemExit) as exc:
        run("gen", "--out-dir", tmp_path / "g0", *params, "--seed", 0)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_gen_rejects_invalid_regime(tmp_path, capsys):
    assert run("gen", "--n", 8, "--k", 4, "--d", 4, "--q", 11,
               "--out-dir", tmp_path / "x") == 2
    assert "error:" in capsys.readouterr().err


def test_tampered_descriptor_is_rejected(tmp_path, capsys):
    out = gen_dir(tmp_path, "g", "--n", 8, "--k", 4, "--d", 6, "--q", 11)
    path = out / "descriptor.json"
    desc = json.loads(path.read_text())
    desc["hashes"]["g_sys.txt"] = "0" * 64
    path.write_text(json.dumps(desc))
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    assert run("encode", "--descriptor", path, "--data", data,
               "--out-dir", tmp_path / "shards") == 2
    assert "does not match" in capsys.readouterr().err


def _cycle(tmp_path, gen_args, payload: bytes):
    out = gen_dir(tmp_path, "code", *gen_args)
    desc_path = out / "descriptor.json"
    data = tmp_path / "data.bin"
    data.write_bytes(payload)
    shards = tmp_path / "shards"
    assert run("encode", "--descriptor", desc_path, "--data", data,
               "--out-dir", shards) == 0
    return desc_path, shards


def test_encode_repair_decode_gf256(tmp_path):
    payload = bytes(random.Random(0).randrange(256) for _ in range(5000))
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), payload
    )

    # every node is rebuilt byte-identically after losing its shard
    for f in range(8):
        path = shards / shard_name(f)
        original = path.read_bytes()
        path.unlink()
        assert run("repair", "--descriptor", desc_path, "--shard-dir", shards,
                   "--failed", f) == 0
        assert path.read_bytes() == original

    recovered = tmp_path / "out.bin"
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
               "--nodes", "1,3,5,7", "--out", recovered) == 0
    assert recovered.read_bytes() == payload


def test_encode_repair_decode_prime(tmp_path):
    payload = bytes(random.Random(1).randrange(256) for _ in range(997))
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--q", 257), payload
    )

    f = 6
    path = shards / shard_name(f)
    original = path.read_bytes()
    path.unlink()
    assert run("repair", "--descriptor", desc_path, "--shard-dir", shards,
               "--failed", f, "--helpers", "0,1,2,3,4,5") == 0
    assert path.read_bytes() == original

    recovered = tmp_path / "out.bin"
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
               "--out", recovered) == 0
    assert recovered.read_bytes() == payload


def test_encode_repair_decode_shortened_route(tmp_path):
    payload = b"shortened-route payload" * 40
    desc_path, shards = _cycle(
        tmp_path, ("--n", 12, "--k", 5, "--d", 10, "--gf256"), payload
    )

    f = 11
    path = shards / shard_name(f)
    original = path.read_bytes()
    path.unlink()
    assert run("repair", "--descriptor", desc_path, "--shard-dir", shards,
               "--failed", f) == 0
    assert path.read_bytes() == original

    recovered = tmp_path / "out.bin"
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
               "--nodes", "2,4,6,8,10", "--out", recovered) == 0
    assert recovered.read_bytes() == payload


def test_encode_rejects_small_prime_field(tmp_path, capsys):
    out = gen_dir(tmp_path, "g", "--n", 8, "--k", 4, "--d", 6, "--q", 11)
    data = tmp_path / "data.bin"
    data.write_bytes(b"abc")
    assert run("encode", "--descriptor", out / "descriptor.json",
               "--data", data, "--out-dir", tmp_path / "s") == 2
    assert "cannot carry arbitrary bytes" in capsys.readouterr().err


def test_empty_payload_round_trip(tmp_path):
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), b""
    )
    recovered = tmp_path / "out.bin"
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
               "--out", recovered) == 0
    assert recovered.read_bytes() == b""


def test_shards_are_bound_to_their_descriptor(tmp_path, capsys):
    payload = b"x" * 100
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), payload
    )
    other = gen_dir(tmp_path, "other", "--n", 8, "--k", 4, "--d", 6, "--q", 11)
    assert run("repair", "--descriptor", other / "descriptor.json",
               "--shard-dir", shards, "--failed", 0) == 2
    assert "different descriptor" in capsys.readouterr().err


@pytest.mark.parametrize("stray", ["node_003_old.shard", "node_3.shard", "node_0003.shard"])
def test_stray_shard_name_is_ignored(tmp_path, stray):
    """Only shard_name(i) names a node: a same-geometry shard of another
    object under a near-miss name must not stand in for node 3."""
    rng = random.Random(8)
    payload, other = rng.randbytes(3000), rng.randbytes(3000)
    desc_path, shards = _cycle(tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), payload)
    data = tmp_path / "other.bin"
    data.write_bytes(other)
    assert run("encode", "--descriptor", desc_path, "--data", data, "--out-dir", tmp_path / "other") == 0
    (shards / stray).write_bytes((tmp_path / "other" / shard_name(3)).read_bytes())

    out = tmp_path / "out.bin"
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
               "--nodes", "0,1,2,3", "--out", out) == 0
    assert out.read_bytes() == payload

    # with node 3's own shard gone, the stray one does not fill in for it
    original = (shards / shard_name(3)).read_bytes()
    (shards / shard_name(3)).unlink()
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards, "--out", out) == 0
    assert out.read_bytes() == payload
    assert run("repair", "--descriptor", desc_path, "--shard-dir", shards, "--failed", 3) == 0
    assert (shards / shard_name(3)).read_bytes() == original


def test_decode_requires_exactly_k_nodes(tmp_path, capsys):
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), b"payload"
    )
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
               "--nodes", "0,1,2", "--out", tmp_path / "o.bin") == 2
    assert "need exactly k=4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "nodes, message",
    [("0,0,1,2", "repeated: [0]"), ("0,1,2,8", "node 8 of 8")],
)
def test_decode_rejects_bad_node_ids(tmp_path, capsys, nodes, message):
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), b"payload"
    )
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
               "--nodes", nodes, "--out", tmp_path / "o.bin") == 2
    err = capsys.readouterr().err
    assert f"bad node list '{nodes}'" in err and message in err


def _as_v1(desc: dict) -> dict:
    """The descriptor as format v1 wrote it: v2 without the layout."""
    return {**{k: v for k, v in desc.items() if k != "layout"}, "format": "pmcode-descriptor-v1"}


def test_v1_prime_descriptor_still_encodes_repairs_and_decodes(tmp_path):
    out = gen_dir(tmp_path, "g", "--n", 8, "--k", 4, "--d", 6, "--q", 257)
    path = out / "descriptor.json"
    desc = json.loads(path.read_text())
    assert desc["format"] == "pmcode-descriptor-v2" and desc["layout"] == {"kind": "u32be"}
    path.write_bytes(cli.descriptor_bytes(_as_v1(desc)))
    payload = random.Random(3).randbytes(3001)
    data, shards = tmp_path / "data.bin", tmp_path / "shards"
    data.write_bytes(payload)
    assert run("encode", "--descriptor", path, "--data", data, "--out-dir", shards) == 0
    original = (shards / shard_name(7)).read_bytes()
    (shards / shard_name(7)).unlink()
    assert run("repair", "--descriptor", path, "--shard-dir", shards, "--failed", 7) == 0
    assert (shards / shard_name(7)).read_bytes() == original
    recovered = tmp_path / "out.bin"
    assert run("decode", "--descriptor", path, "--shard-dir", shards,
               "--nodes", "4,5,6,7", "--out", recovered) == 0
    assert recovered.read_bytes() == payload


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: {**d, "field": {"kind": "binary8"}}, "needs an integer 'poly'"),
        (lambda d: {**d, "field": {"kind": "binary8", "poly": -0x11D}},
         "descriptor field: polynomial -0x11d is not irreducible of degree 8"),
        (lambda d: [d], "must be a JSON object, not list"),
        (lambda d: {**d, "n": "8"}, "'n' must be a JSON int"),
        (lambda d: {**d, "layout": {"kind": "packets", "packet_bytes": 8192}}, "descriptor layout"),
        (lambda d: {k: v for k, v in d.items() if k != "layout"}, "descriptor layout None"),
        (lambda d: _as_v1(d), "pmcode-descriptor-v1 GF(2^8) shards use the byte layout"),
    ],
    ids=["field-without-poly", "negative-poly", "top-level-list", "n-as-string",
         "other-packet-size", "v2-without-layout", "v1-gf256"],
)
def test_malformed_descriptor_is_a_cli_error(tmp_path, capsys, mutate, message):
    out = gen_dir(tmp_path, "g", "--n", 8, "--k", 4, "--d", 6, "--gf256")
    path = out / "descriptor.json"
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    assert run("encode", "--descriptor", path, "--data", data,
               "--out-dir", tmp_path / "shards") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_field_kind_that_is_not_a_string_is_a_cli_error(tmp_path, capsys, kind):
    out = gen_dir(tmp_path, "g", "--n", 8, "--k", 4, "--d", 6, "--q", 257)
    path = out / "descriptor.json"
    desc = json.loads(path.read_text())
    desc["field"]["kind"] = kind
    path.write_text(json.dumps(desc))
    data = tmp_path / "data.bin"
    data.write_bytes(b"hello")
    capsys.readouterr()
    shards, target = tmp_path / "shards", tmp_path / "o.bin"
    commands = [
        ("encode", "--data", data, "--out-dir", shards),
        ("repair", "--shard-dir", shards, "--failed", 0, "--out", target),
        ("decode", "--shard-dir", shards, "--out", target),
        ("certify",),  # exit 1 from certify would mean "a check failed"
        ("analyze",),
    ]
    for name, *rest in commands:
        assert run(name, "--descriptor", path, *rest) == 2, name
        captured = capsys.readouterr()
        assert "unknown field kind" in captured.err and not captured.out, name
        assert not shards.exists() and not target.exists(), name


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xff\xff{", b"[" * 100_000],
    ids=["not-utf8", "nested-100000-deep"],
)
def test_unparsable_descriptor_is_a_cli_error(tmp_path, capsys, raw):
    path = tmp_path / "descriptor.json"
    path.write_bytes(raw)
    out = tmp_path / "o.bin"
    assert run("decode", "--descriptor", path, "--shard-dir", tmp_path, "--out", out) == 2
    assert "descriptor is not valid JSON" in capsys.readouterr().err
    assert not out.exists()
    # exit 1 from certify would mean "a check failed"
    assert run("certify", "--descriptor", path) == 2
    assert "descriptor is not valid JSON" in capsys.readouterr().err


def test_certify_cli(tmp_path, capsys):
    out = gen_dir(tmp_path, "g", "--n", 8, "--k", 4, "--d", 6, "--q", 11)
    assert run("certify", "--descriptor", out / "descriptor.json") == 0
    captured = capsys.readouterr().out
    assert "passed: True" in captured
    assert "repair-exact: exhaustive cases=56 ok" in captured

    assert "property-1: exhaustive cases=56 ok" in captured
    assert "decode-roundtrip: sampled cases=10 ok" in captured

    assert run("certify", "--n", 8, "--k", 4, "--d", 6, "--q", 11,
               "--construction", "vanilla", "--tsv") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert all(row.endswith("ok") for row in rows)


@pytest.mark.parametrize("flag", ["--samples", "--subset-limit", "--decode-samples", "--repair-limit"])
def test_certify_budgets_are_not_options(capsys, flag):
    # a zero budget used to let certify run no cases and still print "passed: True"
    with pytest.raises(SystemExit) as exc:
        run("certify", "--n", 8, "--k", 4, "--d", 6, "--q", 11, flag, 0)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_certify_needs_a_code_selection(capsys):
    assert run("certify") == 2
    assert "provide either" in capsys.readouterr().err


def test_analyze_cli(tmp_path, capsys):
    assert run("analyze", "--n", 8, "--k", 4, "--d", 6, "--q", 11) == 0
    captured = capsys.readouterr().out
    assert "parity_zero_fraction:" in captured

    assert run("analyze", "--n", 8, "--k", 4, "--d", 6, "--q", 11, "--tsv") == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 24


def test_bench_cli_smoke(capsys):
    assert run("bench", "--n", 8, "--k", 4, "--d", 6, "--gf256",
               "--mib", 0.25, "--reps", 2) == 0
    captured = capsys.readouterr().out
    assert "measured_speedup:" in captured
    assert "predicted_speedup:" in captured


@pytest.mark.parametrize("q", [12, 2**31 + 11], ids=["composite", "too-large"])
@pytest.mark.parametrize("command", ["gen", "certify", "analyze", "bench"])
def test_bad_modulus_is_a_cli_error(tmp_path, capsys, command, q):
    extra = ["--out-dir", tmp_path / "g"] if command == "gen" else []
    assert run(command, "--n", 8, "--k", 4, "--d", 6, "--q", q, *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --q: modulus {q} ")
    assert "descriptor" not in err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize(
    "mib, reps, bad",
    [(0.01, 0, "--reps"), (0.01, -2, "--reps"), ("nan", 1, "--mib"), ("inf", 1, "--mib"),
     (-1, 1, "--mib"), (0, 1, "--mib")],
    ids=["reps-0", "reps-negative", "mib-nan", "mib-inf", "mib-negative", "mib-0"],
)
def test_bench_rejects_counts_it_cannot_run(capsys, mib, reps, bad):
    assert run("bench", "--n", 8, "--k", 4, "--d", 6, "--gf256", "--mib", mib, "--reps", reps) == 2
    assert f"error: {bad} must be" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "pmcode.cli", "gen", "--n", "8", "--k", "4",
         "--d", "6", "--q", "11", "--out-dir", str(tmp_path / "g")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "wrote descriptor.json" in result.stdout


# magic | descriptor sha256 | node | stripes | payload length, as the cli docstring gives it
SHARD_HEADER = struct.Struct(">8s32sIQQ")


@pytest.mark.parametrize(
    "forge",
    [lambda plen, stripes: 3 * plen, lambda plen, stripes: (stripes - 1) * 12,
     lambda plen, stripes: 0],
    ids=["tripled", "one-stripe-short", "zero"],
)
def test_forged_payload_length_is_rejected(tmp_path, capsys, forge):
    payload = bytes(random.Random(2).randrange(256) for _ in range(5000))
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), payload
    )
    for i in range(8):
        path = shards / shard_name(i)
        raw = bytearray(path.read_bytes())
        magic, digest, node, stripes, plen = SHARD_HEADER.unpack_from(raw)
        SHARD_HEADER.pack_into(raw, 0, magic, digest, node, stripes, forge(plen, stripes))
        path.write_bytes(raw)

    out = tmp_path / "out.bin"
    assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert shard_name(0) in err and "payload length" in err
    assert not out.exists()

    assert run("repair", "--descriptor", desc_path, "--shard-dir", shards,
               "--failed", 7, "--out", tmp_path / "rebuilt.shard") == 2
    err = capsys.readouterr().err
    assert shard_name(0) in err and "payload length" in err


@pytest.mark.parametrize("field_args", [("--gf256",), ("--q", 257)], ids=["gf256", "f257"])
@pytest.mark.parametrize("nodes", ["0,1,2,3", "4,5,6,7"], ids=["systematic", "parity"])
def test_short_payload_length_fails_the_padding_check(tmp_path, capsys, field_args, nodes):
    # 5000 -> 4996 or 4999 keeps the 417 stripes of B = 12, so only the decoded padding shows it;
    # one byte short leaves a single nonzero byte past the payload
    payload = bytes(random.Random(2).randrange(256) for _ in range(5000))
    assert any(payload[4996:]) and payload[4999] == 28
    desc_path, shards = _cycle(tmp_path, ("--n", 8, "--k", 4, "--d", 6, *field_args), payload)
    for short in (4996, 4999):
        for i in range(8):
            path = shards / shard_name(i)
            raw = bytearray(path.read_bytes())
            magic, digest, node, stripes, plen = SHARD_HEADER.unpack_from(raw)
            SHARD_HEADER.pack_into(raw, 0, magic, digest, node, stripes, short)
            path.write_bytes(raw)
        out = tmp_path / "out.bin"
        assert run("decode", "--descriptor", desc_path, "--shard-dir", shards,
                   "--nodes", nodes, "--out", out) == 2
        assert f"decoded padding past payload length {short} is not zero" in capsys.readouterr().err
        assert not out.exists()


class Hung(Exception):
    pass


@pytest.mark.parametrize("field_args", [("--gf256",), ("--q", 257)], ids=["gf256", "f257"])
def test_a_shard_truncated_after_its_size_check_is_refused(tmp_path, capsys, monkeypatch, field_args):
    # the shard shrinks between open_nodes's size check and the first read: no read may spin on EOF
    payload = bytes(random.Random(3).randrange(256) for _ in range(5000))
    desc_path, shards = _cycle(tmp_path, ("--n", 8, "--k", 4, "--d", 6, *field_args), payload)
    real = shard_format.open_nodes

    def open_then_truncate(*args):
        sources, stripes, payload_len = real(*args)
        path, _ = sources[0]
        os.truncate(path, SHARD_HEADER.size + 5)
        return sources, stripes, payload_len

    def hung(signum, frame):
        raise Hung("decode still reading after 10 s")

    monkeypatch.setattr(shard_format, "open_nodes", open_then_truncate)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        code = run("decode", "--descriptor", desc_path, "--shard-dir", shards, "--out", tmp_path / "out.bin")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert f"{shard_name(0)}: shard ended while being read" in capsys.readouterr().err
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize(
    "failed, helpers, message",
    [
        (2, "0,0,1,3,4,5", "need d=6 distinct helpers"),
        (2, "2,0,1,3,4,5", "failed node 2 cannot help itself"),
        (2, "0,1,3,4,5,8", "helper 8 of 8"),
        (8, "0,1,2,3,4,5", "node 8 of 8"),
    ],
    ids=["repeated", "failed-node-helps", "helper-out-of-range", "failed-out-of-range"],
)
def test_repair_checks_helpers_before_reading_shards(tmp_path, capsys, monkeypatch, failed, helpers, message):
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), b"payload"
    )

    def no_open(*args, **kwargs):
        raise AssertionError("a shard was opened before the helper list was checked")

    monkeypatch.setattr(shard_format, "open_nodes", no_open)
    assert run("repair", "--descriptor", desc_path, "--shard-dir", shards,
               "--failed", failed, "--helpers", helpers) == 2
    err = capsys.readouterr().err
    assert f"cannot repair node {failed}" in err and message in err



@pytest.mark.parametrize("target", ["shard", "descriptor"])
@pytest.mark.parametrize("command", ["decode", "repair"])
def test_output_naming_an_input_is_refused(tmp_path, capsys, command, target):
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), bytes(range(256)) * 40
    )
    out = shards / shard_name(0) if target == "shard" else desc_path
    files = [desc_path, *sorted(shards.iterdir())]
    before = [p.read_bytes() for p in files]
    if command == "decode":
        argv = ("--nodes", "0,1,2,3", "--out", out)
    else:  # the default helpers are nodes 0..5
        argv = ("--failed", 7, "--out", out)
    assert run(command, "--descriptor", desc_path, "--shard-dir", shards, *argv) == 2
    assert "is one of this command's inputs" in capsys.readouterr().err
    assert [desc_path, *sorted(shards.iterdir())] == files  # no temporary file is left
    assert [p.read_bytes() for p in files] == before


@pytest.mark.parametrize("target", ["data", "descriptor"])
def test_encode_refuses_to_overwrite_its_input(tmp_path, capsys, target):
    desc_path, shards = _cycle(
        tmp_path, ("--n", 8, "--k", 4, "--d", 6, "--gf256"), bytes(range(256)) * 40
    )
    data, desc = tmp_path / "data.bin", desc_path
    if target == "data":
        data = shards / shard_name(0)
    else:
        desc = shards / shard_name(3)
        desc.write_bytes(desc_path.read_bytes())
    files = [desc_path, *sorted(shards.iterdir())]
    before = [p.read_bytes() for p in files]
    assert run("encode", "--descriptor", desc, "--data", data, "--out-dir", shards) == 2
    assert "is one of this command's inputs" in capsys.readouterr().err
    assert [desc_path, *sorted(shards.iterdir())] == files  # no temporary file is left
    assert [p.read_bytes() for p in files] == before


@pytest.fixture(scope="module")
def encoded_846(tmp_path_factory):
    """A sparse [8,4,6]/GF(2^8) descriptor, the shards of a 5,000-byte object,
    and node 1's shard from a 4,999-byte object encoded with the same descriptor."""
    root = tmp_path_factory.mktemp("encoded_846")
    code = gen_dir(root, "code", "--n", 8, "--k", 4, "--d", 6, "--gf256")
    rng = random.Random(16)
    for name, size in (("shards", 5000), ("other", 4999)):
        (root / f"{name}.bin").write_bytes(rng.randbytes(size))
        assert run("encode", "--descriptor", code / "descriptor.json",
                   "--data", root / f"{name}.bin", "--out-dir", root / name) == 0
    return code / "descriptor.json", root / "shards", root / "other" / shard_name(1)


def _node_1(shards):
    return shards / shard_name(1)


@pytest.mark.parametrize("mutate, nodes, message", [
    (lambda s, other: _node_1(s).write_bytes(_node_1(s).read_bytes()[: SHARD_HEADER.size + 1250]),
     None, "shard body is 1250 bytes, expected 1251"),
    (lambda s, other: _node_1(s).write_bytes(_node_1(s).read_bytes()[:30]), None, "truncated shard header"),
    (lambda s, other: _node_1(s).write_bytes(b"NOTSHARD" + _node_1(s).read_bytes()[8:]), None, "not a shard file"),
    (lambda s, other: _node_1(s).write_bytes((s / shard_name(2)).read_bytes()), None, "header says node 2"),
    (lambda s, other: _node_1(s).unlink(), None, "{role} 1 has no shard"),
    (lambda s, other: [path.unlink() for path in s.iterdir()], None, "no node_*.shard files"),
    (lambda s, other: None, "0,x", "bad node list '0,x'"),
    (lambda s, other: _node_1(s).write_bytes(other.read_bytes()), None, "stripe geometry differs from other {role}s"),
], ids=["short-body", "short-header", "bad-magic", "wrong-node", "missing-node", "empty-dir",
        "bad-node-list", "other-geometry"])
@pytest.mark.parametrize("command", ["decode", "repair"])
def test_bad_shard_set_is_refused_with_no_output(tmp_path, capsys, encoded_846, command, mutate, nodes, message):
    desc_path, source, other = encoded_846
    shards = tmp_path / "shards"
    shards.mkdir()
    for path in source.iterdir():
        (shards / path.name).write_bytes(path.read_bytes())
    mutate(shards, other)
    out = tmp_path / "out"
    if command == "decode":
        argv, role = ("--nodes", nodes or "0,1,2,3"), "node"
    else:
        argv, role = ("--failed", 7, "--helpers", nodes or "0,1,2,3,4,5"), "helper"
    assert run(command, "--descriptor", desc_path, "--shard-dir", shards, *argv, "--out", out) == 2
    assert message.format(role=role) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shards"]  # no output, no temporary file


@pytest.mark.parametrize("text", ["", ","])
@pytest.mark.parametrize("command", ["decode", "repair"])
def test_an_empty_node_list_is_refused_not_read_as_the_default(tmp_path, capsys, encoded_846, command, text):
    desc_path, shards, _ = encoded_846
    argv = ("--nodes", text) if command == "decode" else ("--failed", 7, "--helpers", text)
    assert run(command, "--descriptor", desc_path, "--shard-dir", shards, *argv, "--out", tmp_path / "out") == 2
    assert f"bad node list {text!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target, reason", [
    ("missing/out.bin", "No such file or directory"),  # the temporary file cannot be created
    ("outdir", "Is a directory"),  # refused before the first chunk, not when the output replaces it
])
@pytest.mark.parametrize("command", ["decode", "repair"])
def test_an_output_that_cannot_be_written_is_reported_by_its_given_path(
        tmp_path, capsys, monkeypatch, encoded_846, command, target, reason):
    desc_path, shards, _ = encoded_846
    before = sorted(p.name for p in shards.iterdir())
    (tmp_path / "outdir").mkdir()
    out = tmp_path / target
    kernels, real = [], analysis.apply_rows_bulk
    monkeypatch.setattr(analysis, "apply_rows_bulk", lambda *args, **kw: kernels.append(args) or real(*args, **kw))
    argv = ("--nodes", "0,1,2,3") if command == "decode" else ("--failed", 7)
    assert run(command, "--descriptor", desc_path, "--shard-dir", shards, *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert kernels == []  # no chunk was read or computed
    assert [p.name for p in tmp_path.rglob("*")] == ["outdir"]  # no output, no temporary file
    assert sorted(p.name for p in shards.iterdir()) == before


HEADER_DIGEST = bytes(range(32))


@st.composite
def shard_heads(draw):
    """(field, alpha, file bytes before the body, body size).  The bytes are
    free, or a packed header that may have a wrong magic or digest, bytes
    overwritten or a cut; the body fits the header's stripe count or has any
    size up to 4 KiB."""
    field = draw(st.sampled_from([field_of_order(256), field_of_order(257)]))
    alpha = draw(st.integers(1, 4))
    stripes = draw(st.integers(0, 64) | st.integers(0, 2**64 - 1))
    if draw(st.integers(0, 3)):
        head = shard_format.HEADER.pack(
            draw(st.sampled_from([shard_format.MAGIC] * 3 + [b"PMSHARD2"])),
            draw(st.sampled_from([HEADER_DIGEST] * 3 + [bytes(32)])),
            draw(st.integers(0, 2**32 - 1)),
            stripes,
            draw(st.integers(0, 2**64 - 1)),
        )
    else:
        head = draw(st.binary(max_size=80))
    for at, value in draw(st.lists(st.tuples(st.integers(0, 79), st.integers(0, 255)), max_size=2)):
        if at < len(head):
            head = head[:at] + bytes([value]) + head[at + 1 :]
    if not draw(st.integers(0, 3)):
        head = head[: draw(st.integers(0, len(head)))]
    fits = alpha * stripes * shard_format.shard_dtype(field).itemsize
    body = draw(st.integers(0, 4096) | (st.just(fits) if fits <= 4096 else st.nothing()))
    return field, alpha, head, body


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(shard_heads())
def test_shard_header_parses_or_is_a_cli_error(case):
    field, alpha, head, body = case
    with tempfile.TemporaryFile() as f:
        f.write(head)
        f.truncate(len(head) + body)
        f.flush()
        try:
            node, stripes, payload_len = shard_format.read_header(
                f.fileno(), "fuzz.shard", HEADER_DIGEST, field, alpha)
        except cli.CliError:
            return
    # only a whole header of this descriptor, over the body its stripes need, parses
    header = shard_format.HEADER
    assert head[: header.size] == header.pack(shard_format.MAGIC, HEADER_DIGEST, node, stripes, payload_len)
    assert len(head) + body == header.size + alpha * stripes * shard_format.shard_dtype(field).itemsize
