"""Repair reads only what its plan needs: the helper rows a repair vector names, or all rows of k nodes."""

import json
import os
import random

import numpy as np
import pytest

from pmcode import analysis, core
from pmcode.analysis import apply_rows_bulk, encode_stripes, random_stripes
from pmcode.cli import code_from_descriptor, main, shard_name
from pmcode.construct import build_rbt_systematic, build_sparse_systematic, build_vanilla_systematic
from pmcode.errors import BadCount, IndexOutOfRange
from pmcode.field import field_of_order
from pmcode.linalg import Matrix, kernel_cost

# name: (gen arguments, nodes repaired by transfer: a unit repair vector)
CODES = {
    "rbt-8-4-6-gf256": (("--n", 8, "--k", 4, "--d", 6, "--gf256", "--construction", "rbt"), range(3)),
    "rbt-8-4-6-f257": (("--n", 8, "--k", 4, "--d", 6, "--q", 257, "--construction", "rbt"), range(3)),
    "sparse-13-6-11-gf256": (("--n", 13, "--k", 6, "--d", 11, "--gf256"), range(5)),
    "sparse-12-6-10-f257": (("--n", 12, "--k", 6, "--d", 10, "--q", 257), range(5)),
    "sparse-17-8-15-gf256": (("--n", 17, "--k", 8, "--d", 15, "--gf256"), range(7)),
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


def _counting_reads(monkeypatch, shards, n):
    """Bytes read from each node's shard, by inode, through pread and preadv."""
    node_of = {os.stat(shards / shard_name(i)).st_ino: i for i in range(n) if (shards / shard_name(i)).exists()}
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
    return read


def _counting_kernels(monkeypatch):
    """The matrix or program of each kernel call the command line makes, in order."""
    kernels = []
    real = analysis.apply_rows_bulk
    monkeypatch.setattr(analysis, "apply_rows_bulk", lambda f, mat, data, **kw: kernels.append(mat) or real(f, mat, data, **kw))
    return kernels


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
    read = _counting_reads(monkeypatch, shards, n)
    for failed in range(n):
        read.update(dict.fromkeys(range(n), 0))
        helpers = [i for i in range(n) if i != failed][:d]
        assert run("repair", "--descriptor", desc, "--shard-dir", shards, "--failed", failed,
                   "--helpers", ",".join(map(str, helpers)), "--out", tmp_path / "rebuilt.shard") == 0
        selected = 1 if failed in CODES[name][1] else alpha
        expected = {i: HEADER_BYTES + selected * STRIPES * itemsize if i in helpers else 0 for i in range(n)}
        assert read == expected, f"node {failed}"


@pytest.mark.parametrize("name", sorted(CODES))
def test_repair_runs_one_kernel_call_per_chunk(tmp_path, monkeypatch, name):
    desc, shards, (n, _, d, alpha) = encoded(tmp_path, name)
    code = code_from_descriptor(json.loads(desc.read_text()))
    field = code.params.field
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 256)  # several chunks for every repair
    kernels = _counting_kernels(monkeypatch)
    for failed in (0, n - 1):  # a node repaired by transfer, then one that is not
        kernels.clear()
        helpers = [i for i in range(n) if i != failed][:d]
        assert run("repair", "--descriptor", desc, "--shard-dir", shards, "--failed", failed,
                   "--helpers", ",".join(map(str, helpers)), "--out", tmp_path / "rebuilt.shard") == 0
        plan = code.helper_plan(failed, helpers)
        selected, program = plan.rows, plan.program
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


@pytest.mark.parametrize("name", sorted(CODES))
def test_decode_runs_one_kernel_call_per_chunk(tmp_path, monkeypatch, name):
    desc, shards, (n, k, _, _) = encoded(tmp_path, name)
    code = code_from_descriptor(json.loads(desc.read_text()))
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 256)  # several chunks for every decode
    kernels = _counting_kernels(monkeypatch)
    for ids in (list(range(k)), list(range(n - k, n))):  # systematic nodes, then the last k
        kernels.clear()
        assert run("decode", "--descriptor", desc, "--shard-dir", shards,
                   "--nodes", ",".join(map(str, ids)), "--out", tmp_path / "decoded.bin") == 0
        program = code.decode_program(ids)
        width = analysis.chunk_stripes(code.params.field, program.inputs, program.rows)
        assert len(kernels) == -(-STRIPES // width) > 1
        assert all((m.data, m.inputs, tuple(m.outputs)) == (program.data, program.inputs, tuple(program.outputs))
                   for m in kernels)


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
    plan = code.helper_plan(0, helpers)
    selected, applied = plan.rows, plan.program
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
    assert np.array_equal(apply_rows_bulk(p.field, plan.program, sent), stored[: p.alpha])


@pytest.mark.parametrize("n, k, d, q, costs", [
    (13, 6, 11, 256, [2056, 2117, 2118, 2038, 2117, 2668, 4170, 4463, 4219, 4571, 4136, 4535, 4456]),
    (12, 6, 10, 257, [50] * 5 + [100] * 7),
])
def test_repair_program_costs(n, k, d, q, costs):
    # bitmatrix ones per block over GF(2^8), terms per stripe over F_257, default helpers
    code = build_sparse_systematic(n, k, d, field=field_of_order(q))
    helpers = [[i for i in range(n) if i != failed][:d] for failed in range(n)]
    assert [kernel_cost(code.helper_plan(f, h).program) for f, h in enumerate(helpers)] == costs


@pytest.mark.parametrize("failed, line", [
    (3, "read 11 symbols (1 of 6 rows per helper), sent 11, naive rebuild reads 36"),
    (12, "read 66 symbols (6 of 6 rows per helper), sent 11, naive rebuild reads 36"),
])
def test_repair_reports_symbols_read_and_sent_per_stripe(tmp_path, capsys, failed, line):
    desc, shards, _ = encoded(tmp_path, "sparse-13-6-11-gf256")
    capsys.readouterr()
    helpers = ",".join(map(str, [i for i in range(13) if i != failed][:11]))
    assert run("repair", "--descriptor", desc, "--shard-dir", shards, "--failed", failed,
               "--helpers", helpers, "--out", tmp_path / "rebuilt.shard") == 0
    assert capsys.readouterr().out.rstrip().endswith(f"per stripe: {line}")


def _build(name):
    gen_args, _ = CODES[name]
    n, k, d = (int(gen_args[i]) for i in (1, 3, 5))
    builder = build_rbt_systematic if "rbt" in gen_args else build_sparse_systematic
    return builder(n, k, d, field=field_of_order(257 if "--q" in gen_args else 256))


@pytest.mark.parametrize("name", sorted(CODES))
def test_default_repair_reads_exactly_the_cheaper_plan(tmp_path, monkeypatch, capsys, name):
    # a transfer node reads one row of d helpers, any other node all of the first k other nodes
    desc, shards, (n, k, d, alpha) = encoded(tmp_path, name)
    itemsize = 1 if "--gf256" in CODES[name][0] else 4
    read = _counting_reads(monkeypatch, shards, n)
    capsys.readouterr()
    for failed in range(n):
        read.update(dict.fromkeys(range(n), 0))
        assert run("repair", "--descriptor", desc, "--shard-dir", shards,
                   "--failed", failed, "--out", tmp_path / "rebuilt.shard") == 0
        assert (tmp_path / "rebuilt.shard").read_bytes() == (shards / shard_name(failed)).read_bytes()
        others = [i for i in range(n) if i != failed]
        if failed in CODES[name][1]:
            nodes, rows, plan = others[:d], 1, "helpers"
        else:
            nodes, rows, plan = others[:k], alpha, f"k={k} nodes"
        assert read == {i: HEADER_BYTES + rows * STRIPES * itemsize if i in nodes else 0 for i in range(n)}, failed
        line = f"rebuilt node {failed} from {plan} {','.join(map(str, nodes))} -> "
        assert capsys.readouterr().out.startswith(line)


# per node: (symbols read per stripe, kernel_cost) of the d-helper plan over the
# first d other nodes, then of the rebuild plan over the first k; kernel_cost is
# bitmatrix ones per block over GF(2^8) and terms per stripe over F_257
PLAN_COSTS = {
    "rbt-8-4-6-gf256": (
        [(6, 426), (6, 422), (6, 442), (18, 1066), (18, 1080), (18, 1130), (18, 1088), (18, 1132)],
        [(12, c) for c in (584, 553, 568, 547, 541, 551, 570, 531)],
    ),
    "rbt-8-4-6-f257": (
        [(6, 18)] * 3 + [(18, 36)] * 5,
        [(12, 21)] * 3 + [(12, 18)] * 5,
    ),
    "sparse-13-6-11-gf256": (
        [(11, c) for c in (2056, 2117, 2118, 2038, 2117)]
        + [(66, c) for c in (2668, 4170, 4463, 4219, 4571, 4136, 4535, 4456)],
        [(36, c) for c in (2003, 1967, 2044, 1984, 2008, 1963, 1958, 1889, 1972, 1989, 1887, 1920, 1951)],
    ),
    "sparse-12-6-10-f257": (
        [(10, 50)] * 5 + [(50, 100)] * 7,
        [(30, 55)] * 5 + [(30, 50)] * 7,
    ),
    "sparse-17-8-15-gf256": (
        [(15, c) for c in (3820, 3643, 3949, 3828, 3810, 3785, 3922)]
        + [(120, c) for c in (7716, 7248, 7625, 7681, 7893, 7336, 7319, 7472, 8036, 7511)],
        [(64, c) for c in (3564, 3513, 3562, 3592, 3584, 3586, 3506, 3356, 3489,
                           3506, 3657, 3525, 3582, 3653, 3666, 3580, 3624)],
    ),
}


@pytest.mark.parametrize("name", sorted(CODES))
def test_repair_plan_costs_and_choice(name):
    code = _build(name)
    p = code.params
    helper_costs, rebuild_costs = PLAN_COSTS[name]
    for failed in range(p.n):
        others = [i for i in range(p.n) if i != failed]
        helper = code.helper_plan(failed, others[: p.d])
        assert (p.d * len(helper.rows), kernel_cost(helper.program)) == helper_costs[failed], failed
        assert (p.B, kernel_cost(code.rebuild_plan(failed, others[: p.k]).program)) == rebuild_costs[failed], failed
        plan = code.repair_plan(failed, range(p.n))
        assert plan.rebuild == (failed not in CODES[name][1])
        assert (plan.symbols, kernel_cost(plan.program)) == min(helper_costs[failed], rebuild_costs[failed])
        assert plan.nodes == tuple(others[: p.k] if plan.rebuild else others[: p.d])
        assert plan.rows == (tuple(range(p.alpha)) if plan.rebuild else helper.rows)


@pytest.mark.parametrize("name", sorted(CODES))
def test_rebuild_program_is_decode_then_generator_rows(name):
    code = _build(name)
    p = code.params
    identity = Matrix.identity(p.field, p.B)
    rng = random.Random(name)
    for failed in range(p.n):
        others = [i for i in range(p.n) if i != failed]
        if failed >= p.k:  # from nodes 0..k-1 the decode is copies: the node's own generator rows
            assert code.rebuild_plan(failed, range(p.k)).program == code.node_block(failed)
        ids = sorted(rng.sample(others, p.k))
        expected = code.node_block(failed) @ (code.decode_program(ids) @ identity)
        assert code.rebuild_plan(failed, ids).program @ identity == expected, (failed, ids)
    stored = encode_stripes(code, random_stripes(p.field, p.B, 45, seed=6))
    ids = list(range(p.n - p.k, p.n))
    rows = np.vstack([stored[i * p.alpha : (i + 1) * p.alpha] for i in ids])
    assert np.array_equal(apply_rows_bulk(p.field, code.rebuild_plan(0, ids).program, rows), stored[: p.alpha])


def test_a_tie_in_reads_goes_to_the_lower_kernel_cost(monkeypatch):
    # [3,2,2]: alpha = 1, so two helpers and two nodes each read two symbols per stripe
    code = build_vanilla_systematic(3, 2, 2, field=field_of_order(256))
    plan = code.repair_plan(0, range(3))
    rebuild = code.rebuild_plan(0, [1, 2]).program
    assert (plan.rebuild, plan.symbols) == (False, 2)
    assert kernel_cost(plan.program) == kernel_cost(rebuild)  # equal cost too: the helpers
    monkeypatch.setattr(core, "kernel_cost", lambda program: 0 if program is rebuild else 1)
    assert code.repair_plan(0, range(3)).rebuild


def test_rebuild_and_plan_refuse_what_they_cannot_run():
    code = _build("rbt-8-4-6-gf256")
    with pytest.raises(BadCount, match="cannot help rebuild itself"):
        code.rebuild_plan(4, [1, 2, 3, 4])
    with pytest.raises(IndexOutOfRange):
        code.rebuild_plan(8, [0, 1, 2, 3])
    with pytest.raises(BadCount):
        code.rebuild_plan(7, [0, 1, 2])
    with pytest.raises(BadCount, match="need at least k=4 other nodes"):
        code.repair_plan(0, [0, 1, 2, 3])
    with pytest.raises(IndexOutOfRange):
        code.repair_plan(8, range(8))
    plan = code.repair_plan(0, [1, 2, 3, 5, 7])  # fewer than d others: only the rebuild is possible
    assert (plan.rebuild, plan.nodes) == (True, (1, 2, 3, 5))


def test_repair_with_fewer_than_d_shards_left_rebuilds_from_k(tmp_path, monkeypatch, capsys):
    desc, shards, (n, k, d, alpha) = encoded(tmp_path, "sparse-13-6-11-gf256")
    lost = {i: (shards / shard_name(i)).read_bytes() for i in range(3)}
    for i in lost:
        (shards / shard_name(i)).unlink()
    read = _counting_reads(monkeypatch, shards, n)
    out = tmp_path / "rebuilt.shard"
    capsys.readouterr()
    assert run("repair", "--descriptor", desc, "--shard-dir", shards, "--failed", 0, "--out", out) == 0
    assert out.read_bytes() == lost[0]
    assert read == {i: HEADER_BYTES + alpha * STRIPES if 3 <= i <= 8 else 0 for i in range(n)}
    assert capsys.readouterr().out.startswith(f"rebuilt node 0 from k=6 nodes 3,4,5,6,7,8 -> {out}; per stripe:")
    # a given helper list still needs d shards
    assert run("repair", "--descriptor", desc, "--shard-dir", shards, "--failed", 0,
               "--helpers", "1,2,3,4,5,6,7,8,9,10,11", "--out", out) == 2
    out.unlink()
    for i in range(3, 8):  # 5 shards left, fewer than k
        (shards / shard_name(i)).unlink()
    assert run("repair", "--descriptor", desc, "--shard-dir", shards, "--failed", 0, "--out", out) == 2
    assert "need at least k=6 other nodes" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["code", "data.bin", "shards"]


@pytest.mark.parametrize("failed, line", [
    (3, "rebuilt node 3 from helpers 0,1,2,4,5,6,7,8,9,10,11 -> {out}; per stripe: "
        "read 11 symbols (1 of 6 rows per helper), sent 11, naive rebuild reads 36"),
    (12, "rebuilt node 12 from k=6 nodes 0,1,2,3,4,5 -> {out}; per stripe: "
         "read 36 symbols (6 of 6 rows per node), kernel_cost 1951; d=11 helpers would read 66, send 11"),
])
def test_default_repair_reports_its_plan(tmp_path, capsys, failed, line):
    desc, shards, _ = encoded(tmp_path, "sparse-13-6-11-gf256")
    out = tmp_path / "rebuilt.shard"
    capsys.readouterr()
    assert run("repair", "--descriptor", desc, "--shard-dir", shards, "--failed", failed, "--out", out) == 0
    assert capsys.readouterr().out == line.format(out=out) + "\n"


@pytest.mark.parametrize("name", ["sparse-13-6-11-gf256", "sparse-12-6-10-f257"])
def test_rebuild_runs_one_kernel_call_per_chunk(tmp_path, monkeypatch, name):
    desc, shards, (n, k, _, _) = encoded(tmp_path, name)
    code = code_from_descriptor(json.loads(desc.read_text()))
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 256)
    kernels = _counting_kernels(monkeypatch)
    assert run("repair", "--descriptor", desc, "--shard-dir", shards,
               "--failed", n - 1, "--out", tmp_path / "rebuilt.shard") == 0
    program = code.rebuild_plan(n - 1, range(k)).program
    width = analysis.chunk_stripes(code.params.field, program.inputs, program.rows)
    assert len(kernels) == -(-STRIPES // width) > 1
    assert all(m == program for m in kernels)
