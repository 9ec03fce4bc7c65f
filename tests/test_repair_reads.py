"""Repair reads only the helper rows its repair vector names, and sends one symbol per helper."""

import json
import os
import random

import numpy as np
import pytest

from pmcode import analysis, core
from pmcode.analysis import encode_stripes, random_stripes, repair_stripes
from pmcode.cli import code_from_descriptor, main, shard_name
from pmcode.construct import build_sparse_systematic
from pmcode.field import field_of_order
from pmcode.linalg import Matrix, kernel_cost

# name: (gen arguments, nodes repaired by transfer: a unit repair vector)
CODES = {
    "rbt-8-4-6-gf256": (("--n", 8, "--k", 4, "--d", 6, "--gf256", "--construction", "rbt"), range(3)),
    "sparse-13-6-11-gf256": (("--n", 13, "--k", 6, "--d", 11, "--gf256"), range(5)),
    "sparse-12-6-10-f257": (("--n", 12, "--k", 6, "--d", 10, "--q", 257), range(5)),
}
STRIPES = 100
HEADER_BYTES = 60  # magic, descriptor digest, node id, stripe count, payload length


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """Blocks of 16 stripes and chunks of a few blocks, so each repair reads several chunks."""
    monkeypatch.setattr(analysis, "PACKET", 2)
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 1024)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def encoded(tmp_path, name):
    """(descriptor, shard dir, params) of a 100-stripe object, its last stripe partial."""
    gen_args, _ = CODES[name]
    code_dir = tmp_path / "code"
    assert run("gen", "--out-dir", code_dir, *gen_args) == 0
    n, k, d = (int(gen_args[i]) for i in (1, 3, 5))
    alpha = d - k + 1
    data = tmp_path / "data.bin"
    data.write_bytes(random.Random(name).randbytes(STRIPES * k * alpha - 7))
    shards = tmp_path / "shards"
    assert run("encode", "--descriptor", code_dir / "descriptor.json", "--data", data, "--out-dir", shards) == 0
    return code_dir / "descriptor.json", shards, (n, k, d, alpha)


@pytest.mark.parametrize("helpers", ["default", "seeded"])
@pytest.mark.parametrize("name", sorted(CODES))
def test_repair_rebuilds_every_node_byte_identical(tmp_path, name, helpers):
    desc, shards, (n, _, d, _) = encoded(tmp_path, name)
    rng = random.Random(f"{name} helpers")
    for failed in range(n):
        argv = ["--failed", failed, "--out", tmp_path / "rebuilt.shard"]
        if helpers == "seeded":
            argv += ["--helpers", ",".join(map(str, rng.sample([i for i in range(n) if i != failed], d)))]
        assert run("repair", "--descriptor", desc, "--shard-dir", shards, *argv) == 0
        assert (tmp_path / "rebuilt.shard").read_bytes() == (shards / shard_name(failed)).read_bytes()


@pytest.mark.parametrize("name", sorted(CODES))
def test_each_helper_reads_its_header_and_only_the_selected_rows(tmp_path, monkeypatch, name):
    desc, shards, (n, _, d, alpha) = encoded(tmp_path, name)
    itemsize = 1 if "--gf256" in CODES[name][0] else 4
    node_of = {os.stat(shards / shard_name(i)).st_ino: i for i in range(n)}
    read = dict.fromkeys(range(n), 0)

    def counting(real):
        def call(fd, *args):
            got = real(fd, *args)
            node = node_of.get(os.fstat(fd).st_ino)
            if node is not None:
                read[node] += got if isinstance(got, int) else len(got)
            return got
        return call

    monkeypatch.setattr(os, "pread", counting(os.pread))
    monkeypatch.setattr(os, "preadv", counting(os.preadv))
    for failed in range(n):
        read.update(dict.fromkeys(range(n), 0))
        assert run("repair", "--descriptor", desc, "--shard-dir", shards,
                   "--failed", failed, "--out", tmp_path / "rebuilt.shard") == 0
        helpers = [i for i in range(n) if i != failed][:d]
        selected = 1 if failed in CODES[name][1] else alpha
        expected = {i: HEADER_BYTES + selected * STRIPES * itemsize if i in helpers else 0 for i in range(n)}
        assert read == expected, f"node {failed}"


@pytest.mark.parametrize("name", sorted(CODES))
def test_repair_runs_one_kernel_call_per_chunk(tmp_path, monkeypatch, name):
    desc, shards, (n, _, d, alpha) = encoded(tmp_path, name)
    code = code_from_descriptor(json.loads(desc.read_text()))
    field = code.params.field
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 256)  # several chunks for every repair
    kernels = []
    real = analysis.apply_rows_bulk
    monkeypatch.setattr(analysis, "apply_rows_bulk", lambda f, mat, data: kernels.append(mat) or real(f, mat, data))
    for failed in (0, n - 1):  # a node repaired by transfer, then one that is not
        kernels.clear()
        assert run("repair", "--descriptor", desc, "--shard-dir", shards,
                   "--failed", failed, "--out", tmp_path / "rebuilt.shard") == 0
        helpers = [i for i in range(n) if i != failed][:d]
        selected, program = code.repair_program(failed, helpers)
        width = analysis.chunk_stripes(field, program.inputs, program.rows)
        assert len(kernels) == -(-STRIPES // width) > 1
        assert all((m.data, m.inputs, tuple(m.outputs)) == (program.data, program.inputs, tuple(program.outputs))
                   for m in kernels)
        rebuild = code.repair_matrix(failed, helpers)
        if failed in CODES[name][1]:
            assert program == rebuild  # each helper sends a stored row as it is
            continue
        # what the program computes: the rebuild matrix over each helper's dot product
        vec = code.repair_vector(failed)
        transfer = Matrix.zeros(field, d, d * len(selected))
        for h in range(d):
            transfer.data[h][h * len(selected) : (h + 1) * len(selected)] = [vec[j] for j in selected]
        assert program @ Matrix.identity(field, program.inputs) == rebuild @ transfer


@pytest.mark.parametrize("q", [256, 257])
def test_a_scaled_unit_repair_vector_runs_the_cheaper_form(monkeypatch, q):
    # one selected row with a coefficient c != 1: each helper sends c times its row
    code = build_sparse_systematic(8, 4, 6, field=field_of_order(q))
    p = code.params
    c = 5
    inv_c = p.field.div(1, c)
    code.repair_vector = lambda failed: [p.field.mul(c, x) for x in type(code).repair_vector(code, failed)]
    real_matrix = code.repair_matrix
    code.repair_matrix = lambda failed, helpers: Matrix(
        p.field, [[p.field.mul(inv_c, x) for x in row] for row in real_matrix(failed, helpers).data]
    )
    built = []
    real_cheaper = core._cheaper_program
    monkeypatch.setattr(core, "_cheaper_program", lambda program: built.append(program) or real_cheaper(program))
    helpers = [1, 2, 3, 4, 5, 6]
    selected, applied = code.repair_program(0, helpers)
    assert selected == (0,)
    (program,) = built
    assert [row[: p.d] for row in program.data[: p.d]] == [[c if j == h else 0 for j in range(p.d)] for h in range(p.d)]
    flat = program @ Matrix.identity(p.field, p.d)
    assert flat == real_matrix(0, helpers)
    assert kernel_cost(applied) == min(kernel_cost(flat), kernel_cost(program))
    assert applied is program or applied == flat
    if q == 257:  # c costs one term per helper, and the flat form drops them
        assert applied == flat
    stored = encode_stripes(code, random_stripes(p.field, p.B, 45, seed=5))
    sent = stored[[h * p.alpha for h in helpers]]
    assert np.array_equal(repair_stripes(code, 0, helpers, sent), stored[: p.alpha])


@pytest.mark.parametrize("n, k, d, q, costs", [
    (13, 6, 11, 256, [2056, 2117, 2118, 2038, 2117, 2668, 4170, 4463, 4219, 4571, 4136, 4535, 4456]),
    (12, 6, 10, 257, [50] * 5 + [100] * 7),
])
def test_repair_program_costs(n, k, d, q, costs):
    # bitmatrix ones per block over GF(2^8), terms per stripe over F_257, default helpers
    code = build_sparse_systematic(n, k, d, field=field_of_order(q))
    helpers = [[i for i in range(n) if i != failed][:d] for failed in range(n)]
    assert [kernel_cost(code.repair_program(f, h)[1]) for f, h in enumerate(helpers)] == costs


@pytest.mark.parametrize("failed, line", [
    (3, "read 11 symbols (1 of 6 rows per helper), sent 11, naive rebuild reads 36"),
    (12, "read 66 symbols (6 of 6 rows per helper), sent 11, naive rebuild reads 36"),
])
def test_repair_reports_symbols_read_and_sent_per_stripe(tmp_path, capsys, failed, line):
    desc, shards, _ = encoded(tmp_path, "sparse-13-6-11-gf256")
    capsys.readouterr()
    assert run("repair", "--descriptor", desc, "--shard-dir", shards,
               "--failed", failed, "--out", tmp_path / "rebuilt.shard") == 0
    assert capsys.readouterr().out.rstrip().endswith(f"per stripe: {line}")
