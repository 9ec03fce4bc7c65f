import copy
import inspect
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from pmcode import analysis, cli, report
from pmcode.analysis import apply_rows_bulk, encode_stripes, random_stripes
from pmcode.report import (
    BenchResult,
    SparsityReport,
    benchmark_pair,
    certify,
    parity_nonzeros,
    predicted_speedup,
    sparsity_report,
)
from pmcode.construct import (
    build_rbt_systematic,
    build_sparse_systematic,
    build_vanilla_systematic,
)
from pmcode.core import (
    CheckResult,
    LinearCode,
    PmVandermondeCode,
    build_params,
    build_vandermonde_encoding,
    encoding_from_phi_lambda,
    random_message,
)
from pmcode.errors import FieldMismatch
from pmcode.field import field_of_order
from pmcode.linalg import Matrix, vandermonde

from golden_vectors import G_SPARSE_SYS
from packet_oracle import from_symbols, packet_oracle, to_symbols


def test_sparsity_report_matches_direct_counts():
    code = build_sparse_systematic(8, 4, 6)
    rep = sparsity_report(code)
    g = code.generator
    assert rep.row_nonzeros == tuple(
        sum(1 for x in row if x) for row in g.data
    )
    assert len(rep.per_node_max) == 8
    alpha = code.params.alpha
    for i in range(8):
        assert rep.per_node_max[i] == max(rep.row_nonzeros[i * alpha : (i + 1) * alpha])
    zeros = sum(1 for row in g.data for x in row if x == 0)
    assert rep.zero_fraction == pytest.approx(zeros / (g.rows * g.cols))
    parity_zeros = sum(1 for row in g.data[12:] for x in row if x == 0)
    assert rep.parity_zero_fraction == pytest.approx(parity_zeros / (12 * 12))


def test_sparsity_report_derives_its_counts_from_its_pattern():
    # [5,3,4] has alpha 2 and B 6; node 3's larger row is its last, and the parity rows differ
    params = build_params(5, 3, 4, field_of_order(7))
    pattern = ("*.....", ".*....", "..*...", "...*..", "....*.", ".....*",
               "**....", "****..", "***...", "*.....")
    rep = SparsityReport("hand-made", params, pattern)
    assert rep.row_nonzeros == (1, 1, 1, 1, 1, 1, 2, 4, 3, 1)
    assert rep.per_node_max == (1, 1, 1, 4, 3)
    assert rep.zero_fraction == 44 / 60
    assert rep.parity_zero_fraction == 14 / 24
    assert rep.to_tsv_rows()[7] == "hand-made\t5/3/4/7\t3\t1\t4"
    assert rep.to_text().splitlines()[:2] == ["label: hand-made", "params: [5,3,4] q=7"]


def test_sparsity_report_known_rows():
    code = build_sparse_systematic(8, 4, 6)
    rep = sparsity_report(code)
    # systematic top block: one nonzero per row
    assert rep.row_nonzeros[:12] == (1,) * 12
    # first parity row of the sparse form keeps at most d = 6 nonzeros
    assert rep.row_nonzeros[12] == 6
    assert rep.row_nonzeros[12] == sum(1 for x in G_SPARSE_SYS[12] if x)
    assert rep.pattern[0] == "*" + "." * 11

    vanilla = sparsity_report(build_vanilla_systematic(8, 4, 6))
    assert vanilla.row_nonzeros[12] == 10
    assert vanilla.parity_zero_fraction < rep.parity_zero_fraction


def test_sparsity_report_serialization():
    rep = sparsity_report(build_sparse_systematic(8, 4, 6))
    text = rep.to_text()
    assert "parity_zero_fraction:" in text
    assert text.endswith("\n")
    rows = rep.to_tsv_rows()
    assert len(rows) == 24
    assert rows[0].split("\t")[1] == "8/4/6/11"


def test_certify_passes_exhaustively_on_small_code():
    code = build_sparse_systematic(8, 4, 6)
    assert code.params.field.order == 11
    record = certify(code, seed=1)
    assert record.passed
    assert [(c.name, c.mode, c.cases) for c in record.checks] == [
        ("property-1", "exhaustive", math.comb(8, 3)),
        ("property-2", "exhaustive", math.comb(8, 6)),
        ("property-3", "exhaustive", 8),
        ("k-subset-rank", "exhaustive", math.comb(8, 4)),
        ("decode-roundtrip", "sampled", 10),  # 10 of the 70 k-subsets
        ("repair-exact", "exhaustive", 8 * math.comb(7, 6)),
        ("repair-plans", "exhaustive", 8 * math.comb(7, 6) + 2 * 8),
        ("systematic-top-block", "exhaustive", 12),
    ]
    assert "passed: True" in record.to_text()
    assert "check decode-roundtrip: sampled cases=10 ok" in record.to_text()
    assert len(record.to_tsv_rows()) == len(record.checks)


def test_certify_decodes_every_subset_only_when_the_budget_covers_them(monkeypatch):
    monkeypatch.setattr(report, "DECODES", 70)
    row = {c.name: c for c in certify(build_sparse_systematic(8, 4, 6)).checks}["decode-roundtrip"]
    assert (row.mode, row.cases, row.ok) == ("exhaustive", 70, True)


def test_certify_sampled_mode(monkeypatch):
    for name, value in [("PROPERTY_LIMIT", 10), ("PROPERTY_SAMPLES", 6), ("SUBSET_LIMIT", 10),
                        ("SUBSET_SAMPLES", 8), ("DECODES", 4), ("REPAIR_LIMIT", 10), ("REPAIR_SAMPLES", 5)]:
        monkeypatch.setattr(report, name, value)
    code = build_sparse_systematic(12, 6, 10)
    record = certify(code, seed=3)
    assert record.passed
    assert [(c.name, c.mode, c.cases) for c in record.checks] == [
        ("property-1", "sampled", 6),
        ("property-2", "sampled", 6),
        ("property-3", "exhaustive", 12),
        ("k-subset-rank", "sampled", 8),
        ("decode-roundtrip", "sampled", 4),
        ("repair-exact", "sampled", 5),
        ("repair-plans", "sampled", 5 + 2 * 12),
        ("systematic-top-block", "exhaustive", code.params.B),
    ]
    # the same seed draws the same cases
    assert certify(code, seed=3) == record


def test_certify_takes_only_a_code_and_a_seed():
    assert list(inspect.signature(certify).parameters) == ["code", "seed"]


def test_certify_records_a_property_violation_and_runs_the_rest(capsys, monkeypatch):
    # over F_13 with alpha = 2, 10^2 == 3^2: lambdas 2 and 3 collide
    params = build_params(6, 3, 4, field_of_order(13))
    xs = [1, 2, 3, 10, 4, 5]
    phi = vandermonde(params.field, xs, 2)
    code = PmVandermondeCode(encoding_from_phi_lambda(params, phi, phi.column_vector(1), xs, validate=False))
    record = certify(code)
    assert not record.passed
    rows = {c.name: c for c in record.checks}
    assert rows["property-3"] == CheckResult("property-3", "exhaustive", 4, ((2, 3),))
    assert "property-1" not in rows and "property-2" not in rows
    assert {"k-subset-rank", "decode-roundtrip", "repair-exact"} <= set(rows)
    # the collision makes the blocks holding nodes 2 and 3 singular, which the later rows see
    assert (0, 2, 3) in rows["k-subset-rank"].failures
    assert all({2, 3} <= set(ids) for ids in rows["decode-roundtrip"].failures)

    monkeypatch.setitem(cli._BUILDERS, "sparse", lambda n, k, d, field: code)
    assert cli.main(["certify", "--n", "6", "--k", "3", "--d", "4"]) == 1
    assert "check property-3: exhaustive cases=4 FAILED [(2, 3)]" in capsys.readouterr().out


def test_certify_catches_parity_corruption():
    code = build_sparse_systematic(8, 4, 6)
    bad = copy.copy(code)
    g = code.generator.copy()
    g.data[12][0] = code.params.field.add(g.data[12][0], 1)
    bad.generator = g
    record = certify(bad, seed=0)
    assert not record.passed
    by_name = {c.name: c for c in record.checks}
    assert not by_name["repair-exact"].ok
    assert by_name["repair-exact"].failures  # witnesses recorded
    assert by_name["systematic-top-block"].ok


@pytest.mark.parametrize("build, n, k, d, q", [
    (build_rbt_systematic, 8, 4, 6, 256),
    (build_sparse_systematic, 13, 6, 11, 256),
    (build_sparse_systematic, 17, 8, 15, 256),
    (build_sparse_systematic, 12, 6, 10, 257),
], ids=["rbt-8-4-6", "sparse-13-6-11", "sparse-17-8-15", "sparse-12-6-10-q257"])
def test_certify_runs_every_repair_plan_exactly(build, n, k, d, q):
    rows = {c.name: c for c in certify(build(n, k, d, field_of_order(q))).checks}
    assert rows["repair-plans"].ok
    assert rows["repair-plans"].cases == rows["repair-exact"].cases + 2 * n
    assert list(rows).index("repair-plans") == list(rows).index("repair-exact") + 1


def test_certify_catches_a_corrupted_plan_program():
    code = build_sparse_systematic(8, 4, 6)
    failed, helpers = 3, (0, 1, 2, 4, 5, 6)
    plan = code.helper_plan(failed, helpers)
    flat = plan.program @ Matrix.identity(code.params.field, plan.symbols)
    flat.data[0][0] = code.params.field.add(flat.data[0][0], 1)
    code._programs[(failed, helpers)] = replace(plan, program=flat)  # the plan that repair would run
    record = certify(code, seed=0)
    rows = {c.name: c for c in record.checks}
    assert not record.passed
    assert rows["repair-exact"].ok  # repair_matrix itself is sound
    assert rows["repair-plans"].failures == (("helpers", failed, helpers),)
    assert "check repair-plans: exhaustive cases=72 FAILED [('helpers', 3, (0, 1, 2, 4, 5, 6))]" in record.to_text()


def test_certify_catches_top_block_corruption():
    code = build_sparse_systematic(8, 4, 6)
    bad = copy.copy(code)
    g = code.generator.copy()
    g.data[0][1] = 5
    bad.generator = g
    record = certify(bad, seed=0)
    assert not record.passed
    by_name = {c.name: c for c in record.checks}
    assert not by_name["systematic-top-block"].ok
    assert 0 in by_name["systematic-top-block"].failures


def test_certify_checks_no_top_block_of_a_code_that_claims_no_systematic_layout():
    code = PmVandermondeCode(build_vandermonde_encoding(build_params(8, 4, 6, field_of_order(11))))
    assert code.column_permutation is None
    record = certify(code, seed=1)
    assert record.passed
    names = [c.name for c in record.checks]
    assert names[:3] == ["property-1", "property-2", "property-3"]
    assert "systematic-top-block" not in names


class _NoEncoding(LinearCode):
    """A code known only by its generator and repair: it carries no encoding matrix."""

    def __init__(self, inner: LinearCode):
        super().__init__(inner.params, inner.generator, "no encoding")
        self.inner = inner

    def repair_vector(self, failed):
        return self.inner.repair_vector(failed)

    def repair_matrix(self, failed, helpers):
        return self.inner.repair_matrix(failed, helpers)


def test_certify_checks_no_properties_of_a_code_without_an_encoding():
    code = _NoEncoding(build_sparse_systematic(8, 4, 6))
    assert code.enc is None
    record = certify(code, seed=1)
    assert record.passed
    assert [c.name for c in record.checks] == ["k-subset-rank", "decode-roundtrip", "repair-exact", "repair-plans"]


# (build function, code, its base-regime parent, how many .base hops reach the direct construction)
CARRIERS = [
    (build_sparse_systematic, (8, 4, 6), (8, 4, 6), 1),
    (build_sparse_systematic, (12, 5, 10), (14, 7, 12), 2),
    (build_rbt_systematic, (8, 4, 6), (8, 4, 6), 2),
    (build_vanilla_systematic, (8, 4, 6), (8, 4, 6), 1),
    (build_vanilla_systematic, (9, 4, 7), (10, 5, 8), 1),
]


@pytest.mark.parametrize("build, nkd, parent, hops", CARRIERS,
                         ids=["sparse-8-4-6", "sparse-12-5-10", "rbt-8-4-6", "vanilla-8-4-6", "vanilla-9-4-7"])
def test_a_code_carries_the_encoding_of_its_direct_construction(build, nkd, parent, hops):
    code = build(*nkd)
    direct = code
    for _ in range(hops):
        direct = direct.base
    assert type(direct) is PmVandermondeCode
    assert code.enc is direct.enc and code.base.enc is direct.enc
    assert (code.enc.params.n, code.enc.params.k, code.enc.params.d) == parent
    assert code.column_permutation == list(range(code.params.B))
    assert direct.column_permutation is None


def test_apply_rows_bulk_matches_per_stripe_mul():
    rng = random.Random(7)
    for q in (11, 256):
        field = field_of_order(q)
        mat = Matrix(
            field, [[rng.randrange(q) for _ in range(5)] for _ in range(7)]
        )
        data = random_stripes(field, 5, 9, seed=2)
        out = apply_rows_bulk(field, mat, data)
        if q == 256:  # GF(2^8) stripes hold packets: compare their virtual symbols
            data, out = to_symbols(data, analysis.PACKET), to_symbols(out, analysis.PACKET)
        for s in range(9):
            col = [int(data[t][s]) for t in range(5)]
            assert [int(out[r][s]) for r in range(7)] == mat.mul_vector(col)


def _per_symbol(field, mat, data):
    """mat @ data one symbol at a time with field.mul and field.add."""
    out = np.zeros((mat.rows, data.shape[1]), dtype=np.int64)
    for r, row in enumerate(mat.data):
        for s in range(data.shape[1]):
            acc = 0
            for j, c in enumerate(row):
                acc = field.add(acc, field.mul(c, int(data[j, s])))
            out[r, s] = acc
    return out


@pytest.mark.parametrize("skip_zeros", [True, False])
def test_apply_rows_bulk_every_gf256_coefficient(skip_zeros):
    field = field_of_order(256)
    mat = Matrix(field, [[c] for c in range(256)])
    data = np.arange(256, dtype=np.uint8)[None, :]
    out = apply_rows_bulk(field, mat, data, skip_zeros=skip_zeros)
    symbols = to_symbols(data, analysis.PACKET)
    assert np.array_equal(out, from_symbols(_per_symbol(field, mat, symbols), analysis.PACKET))


@pytest.mark.parametrize("skip_zeros", [True, False])
@pytest.mark.parametrize("stripes", [1, 15, 16, 17, 70])
def test_apply_rows_bulk_gf256_chunk_edges(monkeypatch, stripes, skip_zeros):
    # 2-byte packets: blocks of 16 stripes, and a partial block of w stripes
    # has w // 8 bytes per packet and w % 8 stripes left to the symbol path
    monkeypatch.setattr(analysis, "PACKET", 2)
    field = field_of_order(256)
    rng = random.Random(stripes)
    row_values = [0, 1, 2, 255]
    mat = Matrix(field, [[rng.choice(row_values) for _ in range(4)] for _ in range(5)])
    data = random_stripes(field, 4, stripes, seed=stripes)
    out = apply_rows_bulk(field, mat, data, skip_zeros=skip_zeros)
    assert np.array_equal(out, packet_oracle(field, mat, data, 2))
    # the transposed view encode passes in gives the same result
    strided = np.ascontiguousarray(data.T).T
    assert np.array_equal(apply_rows_bulk(field, mat, strided, skip_zeros=skip_zeros), out)


@pytest.mark.parametrize(
    "blocks, extra",
    [(0, 1), (0, 7), (0, 8), (0, 9), (1, -1), (1, 0), (1, 5), (3, 13)],
    ids=["1", "7", "8", "9", "8P-1", "8P", "8P+5", "3x8P+13"],
)
def test_apply_rows_bulk_packet_layout_every_coefficient(blocks, extra):
    # w = blocks * 8P + extra stripes at the real packet size P, every nonzero coefficient
    packet = analysis.PACKET
    stripes = blocks * 8 * packet + extra
    field = field_of_order(256)
    mat = Matrix(field, [[c] for c in range(1, 256)])
    data = random_stripes(field, 1, 2 * stripes, seed=stripes)[:, ::2]  # a strided view
    out = apply_rows_bulk(field, mat, data)
    assert np.array_equal(out, packet_oracle(field, mat, data, packet))
    assert np.array_equal(out[0], data[0])  # a unit coefficient copies: systematic rows stay bytes


@pytest.mark.parametrize("build", [build_sparse_systematic, build_vanilla_systematic], ids=["sparse", "vanilla"])
def test_17_8_15_gf256_stripes_match_the_packet_oracle(monkeypatch, build):
    # criterion 10's codes against a reference apart from the kernel.  With
    # 2-byte packets (blocks of 16 stripes), 45 stripes are two whole blocks,
    # a partial block of 1-byte packets and a w mod 8 tail of 5 symbols.
    monkeypatch.setattr(analysis, "PACKET", 2)
    code = build(17, 8, 15, field=field_of_order(256))
    p = code.params
    data = random_stripes(p.field, p.B, 45, seed=1715)
    stored = encode_stripes(code, data)
    assert np.array_equal(stored, packet_oracle(p.field, code.generator, data, 2))

    def node_rows(ids):
        return np.vstack([stored[i * p.alpha : (i + 1) * p.alpha] for i in ids])

    failed = 12  # a parity node
    helpers = [i for i in range(p.n) if i not in (failed, 3)]
    plan = code.helper_plan(failed, helpers)
    sent = np.vstack([node_rows([h])[list(plan.rows)] for h in helpers])
    assert np.array_equal(apply_rows_bulk(p.field, plan.program, sent), node_rows([failed]))
    ids = [1, 3, 5, 9, 11, 13, 15, 16]  # a degraded decode: four parity nodes
    assert np.array_equal(apply_rows_bulk(p.field, code.decode_program(ids), node_rows(ids)), data)


def test_packet_oracle_transposes_back():
    data = random_stripes(field_of_order(256), 3, 8 * 5 * 2 + 8 * 3 + 5, seed=1)
    symbols = to_symbols(data, 5)
    assert not np.array_equal(symbols, data)
    assert np.array_equal(symbols[:, -5:], data[:, -5:])  # the last w % 8 stripes are symbols
    assert np.array_equal(from_symbols(symbols, 5), data)


def test_apply_rows_bulk_gf256_rejects_wide_symbols():
    field = field_of_order(256)
    mat = Matrix(field, [[1, 2]])
    with pytest.raises(FieldMismatch):
        apply_rows_bulk(field, mat, np.zeros((2, 3), dtype=np.int64))


def test_apply_rows_bulk_prime_c_and_f_order_agree():
    field = field_of_order(257)
    rng = random.Random(3)
    mat = Matrix(field, [[rng.randrange(257) for _ in range(6)] for _ in range(4)])
    f_order = np.asfortranarray(random_stripes(field, 6, 40, seed=3))
    c_order = np.ascontiguousarray(f_order)
    assert not f_order.flags.c_contiguous
    out = apply_rows_bulk(field, mat, c_order)
    assert np.array_equal(out, apply_rows_bulk(field, mat, f_order))
    assert np.array_equal(out, _per_symbol(field, mat, c_order))


@pytest.mark.parametrize("skip_zeros", [True, False])
def test_apply_rows_bulk_prime_unit_terms_and_narrow_input(skip_zeros):
    # unit terms skip the multiply; uint8 and big-endian u32 inputs are widened once
    field = field_of_order(257)
    rng = random.Random(5)
    mat = Matrix(field, [[rng.choice([0, 1, 1, 256, rng.randrange(257)]) for _ in range(6)] for _ in range(7)])
    wide = random_stripes(field, 6, 33, seed=6)
    expected = _per_symbol(field, mat, wide)
    for data in (wide, wide.astype(">u4"), (wide % 256).astype(np.uint8).T.copy().T):
        want = expected if data.dtype != np.uint8 else _per_symbol(field, mat, data)
        assert np.array_equal(apply_rows_bulk(field, mat, data, skip_zeros=skip_zeros), want)


def test_apply_rows_bulk_skip_and_dense_identical():
    field = field_of_order(256)
    code = build_sparse_systematic(8, 4, 6, field=field)
    data = random_stripes(field, code.params.B, 50, seed=5)
    fast = encode_stripes(code, data, skip_zeros=True)
    slow = encode_stripes(code, data, skip_zeros=False)
    assert np.array_equal(fast, slow)


def test_encode_stripes_matches_encode_message(monkeypatch):
    monkeypatch.setattr(analysis, "PACKET", 2)
    for q in (11, 256):
        code = build_sparse_systematic(8, 4, 6, field=field_of_order(q))
        data = random_stripes(code.params.field, code.params.B, 37, seed=9)
        out = encode_stripes(code, data)
        if q == 256:  # two blocks, a partial one of 2-stripe packets and 5 symbols
            data, out = to_symbols(data, 2), to_symbols(out, 2)
        for s in range(37):
            m = [int(data[t][s]) for t in range(code.params.B)]
            assert [int(out[r][s]) for r in range(out.shape[0])] == code.encode_message(m)


def test_apply_rows_bulk_large_prime_modulus():
    # modulus close to 2**31 forces the overflow-guarded accumulation path
    q = (1 << 31) - 1
    field = field_of_order(q)
    rng = random.Random(11)
    mat = Matrix(field, [[rng.randrange(q) for _ in range(4)] for _ in range(3)])
    data = np.array(
        [[rng.randrange(q) for _ in range(5)] for _ in range(4)], dtype=np.int64
    )
    out = apply_rows_bulk(field, mat, data)
    for s in range(5):
        col = [int(data[t][s]) for t in range(4)]
        assert [int(out[r][s]) for r in range(3)] == mat.mul_vector(col)


@pytest.mark.parametrize("q", [257, 46337, 46349], ids=["f257", "largest-int32", "smallest-int64"])
def test_apply_rows_bulk_prime_accumulators_do_not_overflow(q):
    # every term at its largest, (q-1)^2, on rows long enough to need reducing
    field = field_of_order(q)
    assert analysis.kernel_dtype(field) == (np.int64 if q == 46349 else np.int32)
    cols = 300
    mat = Matrix(field, [[q - 1] * cols, [1] * cols, [q - 1, 0] * (cols // 2)])
    data = np.full((cols, 3), q - 1, dtype=np.int64)
    out = apply_rows_bulk(field, mat, data)
    for s in range(3):
        assert [int(x) for x in out[:, s]] == mat.mul_vector([q - 1] * cols)


def test_random_stripes_deterministic_and_in_range():
    field = field_of_order(11)
    a = random_stripes(field, 6, 20, seed=4)
    b = random_stripes(field, 6, 20, seed=4)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 11
    g = random_stripes(field_of_order(256), 6, 20, seed=4)
    assert g.dtype == np.uint8


def test_benchmark_pair_sparse_beats_dense():
    field = field_of_order(256)
    sparse = build_sparse_systematic(8, 4, 6, field=field)
    dense = build_vanilla_systematic(8, 4, 6, field=field)
    rs, rd, measured, predicted = benchmark_pair(
        sparse, dense, workload_mib=1.0, reps=3, seed=2
    )
    assert predicted == pytest.approx(
        parity_nonzeros(dense) / parity_nonzeros(sparse)
    )
    assert predicted > 1.5
    assert measured > 1.0
    assert rs.seconds_median < rd.seconds_median


def test_benchmark_pair_alternates_its_reps(monkeypatch):
    # a drift in CPU speed during the run then moves both medians alike
    sparse = build_sparse_systematic(8, 4, 6, field=field_of_order(256))
    dense = build_vanilla_systematic(8, 4, 6, field=field_of_order(256))
    order = []
    real = report.encode_stripes
    monkeypatch.setattr(report, "encode_stripes", lambda code, *a: order.append(code) or real(code, *a))
    rs, rd, _, _ = benchmark_pair(sparse, dense, workload_mib=0.01, reps=3, seed=2)
    assert order == [sparse, dense] * 4  # one warmup each, then the reps in turn
    assert (rs.reps, rd.reps, rs.stripes) == (3, 3, rd.stripes)
    for res, code in ((rs, sparse), (rd, dense)):
        assert isinstance(res, BenchResult)
        assert res.message_bytes >= 0.01 * (1 << 20)
        assert res.stripes * code.params.B == res.message_bytes
        assert len(res.seconds_all) == 3
        assert res.throughput_mib_s > 0
        assert res.parity_nonzeros == parity_nonzeros(code)
        assert "throughput_mib_s:" in res.to_text()
        assert res.to_tsv_row().count("\t") >= 5


def test_benchmark_pair_counts_one_byte_per_prime_symbol():
    # --mib is the size of the file the stripes would encode, whatever the field
    field = field_of_order(257)
    sparse = build_sparse_systematic(12, 6, 10, field=field)
    dense = build_vanilla_systematic(12, 6, 10, field=field)
    rs, rd, _, _ = benchmark_pair(sparse, dense, workload_mib=0.01, reps=1, seed=2)
    B = sparse.params.B
    assert rs.stripes == rd.stripes == math.ceil(0.01 * (1 << 20) / B)
    assert rs.message_bytes == rd.message_bytes == rs.stripes * B


def test_predicted_speedup_counts_parity_rows_only():
    sparse = build_sparse_systematic(8, 4, 6)
    dense = build_vanilla_systematic(8, 4, 6)
    nnz_sparse = sum(1 for row in sparse.generator.data[12:] for x in row if x)
    nnz_dense = sum(1 for row in dense.generator.data[12:] for x in row if x)
    assert parity_nonzeros(sparse) == nnz_sparse
    assert predicted_speedup(sparse, dense) == pytest.approx(nnz_dense / nnz_sparse)
