"""Core construction, encoding, repair, and decoding tests.

The [8,4,6] code over F_11 with points 1..8 has frozen expected matrices in
golden_vectors; everything else is checked against independent oracles
(definition-level recomputation) or by exhaustive small-case enumeration.
"""

import itertools
import random

import pytest

from pmcode.core import (
    CheckResult,
    MessageMatrix,
    PmVandermondeCode,
    build_params,
    build_vandermonde_encoding,
    decode_identity_block,
    encode,
    encoding_from_phi_lambda,
    generator_matrix,
    has_identity_block,
    pack_message,
    random_message,
    subset_cases,
    sym_index,
    unpack_message,
    validate_properties,
)
from pmcode.errors import (
    AsymmetryDetected,
    BadCount,
    BadHelperCount,
    DesignMismatch,
    IndexOutOfRange,
    InvalidRegime,
    LengthMismatch,
    PropertyViolation,
)
from pmcode.field import field_of_order
from pmcode.linalg import Matrix

from golden_vectors import G, PSI, PSI_SPARSE

F11 = field_of_order(11)
GF256 = field_of_order(256)


@pytest.fixture(scope="module")
def code846():
    params = build_params(8, 4, 6, F11)
    return PmVandermondeCode(build_vandermonde_encoding(params))


@pytest.fixture(scope="module")
def code846_gf256():
    params = build_params(8, 4, 6, GF256)
    return PmVandermondeCode(build_vandermonde_encoding(params))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_build_params_examples():
    p = build_params(8, 4, 6, F11)
    assert (p.alpha, p.B) == (3, 12)
    p = build_params(3, 2, 2, F11)
    assert (p.alpha, p.B) == (1, 2)
    p = build_params(17, 8, 15, field_of_order(43))
    assert (p.alpha, p.B) == (8, 64)


def test_build_params_regime_errors():
    with pytest.raises(InvalidRegime):
        build_params(8, 4, 5, F11)  # d < 2k-2
    with pytest.raises(InvalidRegime):
        build_params(8, 4, 8, F11)  # d > n-1
    with pytest.raises(InvalidRegime):
        build_params(8, 1, 6, F11)  # k too small
    with pytest.raises(InvalidRegime):
        build_params(8, 4, 6, field_of_order(7))  # field too small for n


def test_direct_construction_needs_base_regime():
    params = build_params(10, 4, 8, F11)  # valid params, but d != 2k-2
    with pytest.raises(InvalidRegime):
        build_vandermonde_encoding(params)


# ---------------------------------------------------------------------------
# encoding matrix and properties
# ---------------------------------------------------------------------------

def test_vandermonde_encoding_matches_reference():
    enc = build_vandermonde_encoding(build_params(8, 4, 6, F11))
    assert enc.psi.data == PSI
    assert enc.lam == (1, 8, 5, 9, 4, 7, 2, 6)
    assert enc.phi.data == [row[:3] for row in PSI]
    assert enc.xs == tuple(range(1, 9))


def test_validation_report_exhaustive_counts():
    enc = build_vandermonde_encoding(build_params(8, 4, 6, F11))
    rows = validate_properties(enc.params, enc.phi, list(enc.lam))
    assert rows == (
        CheckResult("property-1", "exhaustive", 56),  # C(8,3)
        CheckResult("property-2", "exhaustive", 28),  # C(8,6)
        CheckResult("property-3", "exhaustive", 8),
    )
    assert all(c.ok for c in rows)


def test_validation_sampled_mode_is_seeded():
    params = build_params(8, 4, 6, F11)
    enc = build_vandermonde_encoding(params)
    rows = validate_properties(params, enc.phi, list(enc.lam), exhaustive_limit=0, samples=50, seed=123)
    assert [(c.name, c.mode, c.cases) for c in rows] == [
        ("property-1", "sampled", 50), ("property-2", "sampled", 50), ("property-3", "exhaustive", 8),
    ]
    # same seed revalidates identically
    again = validate_properties(params, enc.phi, list(enc.lam), exhaustive_limit=0, samples=50, seed=123)
    assert again == rows


def test_subset_cases_is_exhaustive_up_to_the_limit_then_seeded():
    assert subset_cases(5, 2, 10, 3, random.Random(0)) == ("exhaustive", list(itertools.combinations(range(5), 2)))
    mode, drawn = subset_cases(5, 2, 9, 3, random.Random(4))
    assert (mode, len(drawn)) == ("sampled", 3)
    assert all(len(set(s)) == 2 and list(s) == sorted(s) for s in drawn)
    assert subset_cases(5, 2, 9, 3, random.Random(4)) == (mode, drawn)


def test_property3_violation_duplicate_lambdas():
    # over F_13 with alpha=2, 10^2 == 3^2, so lambda collides
    params = build_params(6, 3, 4, field_of_order(13))
    with pytest.raises(PropertyViolation) as exc:
        build_vandermonde_encoding(params, xs=[1, 2, 3, 10, 4, 5])
    assert exc.value.which == 3
    assert exc.value.witness == (2, 3)
    assert exc.value.check == CheckResult("property-3", "exhaustive", 4, ((2, 3),))


def test_property1_violation_singular_phi_rows():
    params = build_params(5, 3, 4, F11)
    phi = Matrix(F11, [[1, 0], [2, 0], [0, 1], [1, 1], [1, 2]])
    with pytest.raises(PropertyViolation) as exc:
        encoding_from_phi_lambda(params, phi, [1, 2, 3, 4, 5])
    assert exc.value.which == 1
    assert exc.value.witness == (0, 1)
    assert exc.value.check == CheckResult("property-1", "exhaustive", 1, ((0, 1),))


def test_property2_violation_singular_psi_rows():
    # pairwise-independent phi rows, but psi rows 0..3 are linearly dependent
    params = build_params(5, 3, 4, F11)
    phi = Matrix(F11, [[1, 0], [0, 1], [1, 1], [3, 8], [1, 4]])
    lam = [1, 2, 3, 9, 6]
    with pytest.raises(PropertyViolation) as exc:
        encoding_from_phi_lambda(params, phi, lam)
    assert exc.value.which == 2
    assert exc.value.witness == (0, 1, 2, 3)
    assert exc.value.check == CheckResult("property-2", "exhaustive", 1, ((0, 1, 2, 3),))


def test_gf256_encoding_validates():
    enc = build_vandermonde_encoding(build_params(8, 4, 6, GF256))
    assert all(c.ok for c in validate_properties(enc.params, enc.phi, list(enc.lam)))
    assert len(set(enc.lam)) == 8
    # points are a consecutive run chosen deterministically
    s = enc.xs[0]
    assert enc.xs == tuple(range(s, s + 8))


# ---------------------------------------------------------------------------
# message packing
# ---------------------------------------------------------------------------

def test_sym_index_layout():
    assert [sym_index(3, i, j) for i in range(3) for j in range(i, 3)] == [0, 1, 2, 3, 4, 5]
    assert sym_index(3, 2, 1) == sym_index(3, 1, 2) == 4


def test_pack_message_reference_layout():
    # F_13 so the twelve distinct symbol values 0..11 survive reduction
    params = build_params(8, 4, 6, field_of_order(13))
    mm = pack_message(params, list(range(12)))
    assert mm.sa.data == [[0, 1, 2], [1, 3, 4], [2, 4, 5]]
    assert mm.sb.data == [[6, 7, 8], [7, 9, 10], [8, 10, 11]]


def test_pack_unpack_roundtrip():
    params = build_params(8, 4, 6, F11)
    rng = random.Random(0)
    for _ in range(25):
        m = random_message(params, rng)
        assert unpack_message(params, pack_message(params, m)) == m


def test_pack_length_and_symmetry_errors():
    params = build_params(8, 4, 6, F11)
    with pytest.raises(LengthMismatch):
        pack_message(params, [0] * 11)
    with pytest.raises(AsymmetryDetected):
        MessageMatrix(Matrix(F11, [[1, 2], [3, 4]]), Matrix(F11, [[0, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_generator_matches_reference(code846):
    assert code846.generator.data == G


def test_encode_paths_agree(code846, code846_gf256):
    for code in (code846, code846_gf256):
        params = code.params
        rng = random.Random(11)
        for _ in range(20):
            m = random_message(params, rng)
            cw = encode(code.enc, pack_message(params, m))
            flat = [x for row in cw.data for x in row]
            assert flat == code.encode_message(m)


def test_encode_zero_message(code846):
    assert set(code846.encode_message([0] * 12)) == {0}


def test_node_block_rows(code846):
    assert code846.node_block(0).data == G[0:3]
    assert code846.node_block(7).data == G[21:24]
    with pytest.raises(IndexOutOfRange):
        code846.node_block(8)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def test_helper_symbol_is_psi_row_times_m_phi(code846):
    """Oracle: the transferred scalar equals psi_h . (M phi_f)."""
    params = code846.params
    enc = code846.enc
    rng = random.Random(2)
    m = random_message(params, rng)
    mm = pack_message(params, m)
    stored = code846.stored_rows(m)
    for f in range(8):
        phi_f = enc.phi.row(f)
        m_phi = mm.stacked().mul_vector(phi_f)  # length d
        for h in range(8):
            if h == f:
                continue
            expected = 0
            for x, y in zip(enc.psi.row(h), m_phi):
                expected = F11.add(expected, F11.mul(x, y))
            assert code846.helper_symbol(stored[h], f) == expected


@pytest.mark.parametrize("codename", ["code846", "code846_gf256"])
def test_repair_exhaustive_all_nodes_all_helper_sets(codename, request):
    code = request.getfixturevalue(codename)
    params = code.params
    rng = random.Random(5)
    m = random_message(params, rng)
    stored = code.stored_rows(m)
    cases = 0
    for f in range(params.n):
        others = [i for i in range(params.n) if i != f]
        for helpers in itertools.combinations(others, params.d):
            bundle = code.run_repair(stored, f, helpers)
            assert list(bundle.rebuilt) == stored[f]
            assert len(bundle.symbols) == params.d
            cases += 1
    assert cases == params.n * 7  # C(7,6) = 7 helper sets per failed node


def test_repair_argument_errors(code846):
    stored = code846.stored_rows([1] * 12)
    with pytest.raises(BadHelperCount):
        code846.run_repair(stored, 0, [1, 2, 3, 4, 5])          # too few
    with pytest.raises(BadHelperCount):
        code846.run_repair(stored, 0, [1, 2, 3, 4, 5, 5])       # duplicate
    with pytest.raises(BadHelperCount):
        code846.run_repair(stored, 0, [0, 1, 2, 3, 4, 5])       # includes failed
    with pytest.raises(IndexOutOfRange):
        code846.run_repair(stored, 0, [1, 2, 3, 4, 5, 8])       # out of range
    with pytest.raises(IndexOutOfRange):
        code846.run_repair(stored, 9, [1, 2, 3, 4, 5, 6])
    with pytest.raises(BadHelperCount):
        code846.repair(0, [1, 2, 3, 4, 5, 6], [0] * 5)          # wrong symbol count


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------

def test_decode_all_k_subsets(code846):
    params = code846.params
    rng = random.Random(7)
    m = random_message(params, rng)
    stored = code846.stored_rows(m)
    count = 0
    for ids in itertools.combinations(range(8), 4):
        assert code846.decode(ids, [stored[i] for i in ids]) == m
        count += 1
    assert count == 70


def test_decode_argument_errors(code846):
    stored = code846.stored_rows([0] * 12)
    with pytest.raises(BadCount):
        code846.decode([0, 1, 2], [stored[i] for i in range(3)])
    with pytest.raises(BadCount):
        code846.decode([0, 1, 2, 2], [stored[0]] * 4)
    with pytest.raises(IndexOutOfRange):
        code846.decode([0, 1, 2, 8], [stored[0]] * 4)
    with pytest.raises(BadCount):
        code846.decode([0, 1, 2, 3], [stored[0]] * 3)
    with pytest.raises(LengthMismatch):
        code846.decode([0, 1, 2, 3], [stored[0], stored[1], stored[2], [1, 2]])


def sparse_code846():
    params = build_params(8, 4, 6, F11)
    phi = Matrix(F11, [row[:3] for row in PSI_SPARSE])
    lam = [1, 8, 5, 9, 4, 7, 2, 6]
    return PmVandermondeCode(encoding_from_phi_lambda(params, phi, lam))


def test_identity_block_detection(code846):
    assert not has_identity_block(code846.enc)
    assert has_identity_block(sparse_code846().enc)


def test_decode_identity_block_matches_generic():
    code = sparse_code846()
    params = code.params
    rng = random.Random(13)
    ids = list(range(4))
    for _ in range(50):
        m = random_message(params, rng)
        stored = code.stored_rows(m)
        rows = [stored[i] for i in ids]
        fast = code.decode(ids, rows, method="identity")
        slow = code.decode(ids, rows, method="generic")
        assert fast == slow == m
        assert code.decode(ids, rows) == m  # auto picks the fast path


def test_decode_identity_block_direct():
    code = sparse_code846()
    params = code.params
    m = list(range(12))
    mm = pack_message(params, [x % 11 for x in m])
    c_k = Matrix(F11, code.stored_rows([x % 11 for x in m])[:4])
    got = decode_identity_block(params, c_k, list(code.enc.lam[:4]), code.enc.phi.row(3))
    assert got == mm


def test_identity_decode_rejects_wrong_design(code846):
    stored = code846.stored_rows([1] * 12)
    with pytest.raises(DesignMismatch):
        code846.decode([0, 1, 2, 3], stored[:4], method="identity")
    code = sparse_code846()
    stored = code.stored_rows([1] * 12)
    with pytest.raises(DesignMismatch):
        code.decode([1, 2, 3, 4], stored[1:5], method="identity")


def test_decode_identity_block_design_errors():
    params = build_params(8, 4, 6, F11)
    c_k = Matrix.zeros(F11, 4, 3)
    with pytest.raises(DesignMismatch):
        decode_identity_block(params, c_k, [1, 1, 2, 3], [1, 1, 1])
    with pytest.raises(DesignMismatch):
        decode_identity_block(params, c_k, [1, 2, 3, 4], [1, 0, 1])
    with pytest.raises(LengthMismatch):
        decode_identity_block(params, c_k, [1, 2, 3], [1, 1, 1])


# ---------------------------------------------------------------------------
# degenerate smallest case
# ---------------------------------------------------------------------------

def test_smallest_code_n3_k2_d2():
    params = build_params(3, 2, 2, F11)
    code = PmVandermondeCode(build_vandermonde_encoding(params))
    assert code.enc.lam == (1, 2, 3)
    rng = random.Random(3)
    for _ in range(10):
        m = random_message(params, rng)
        stored = code.stored_rows(m)
        for ids in itertools.combinations(range(3), 2):
            assert code.decode(ids, [stored[i] for i in ids]) == m
        for f in range(3):
            helpers = [i for i in range(3) if i != f][:2]
            assert list(code.run_repair(stored, f, helpers).rebuilt) == stored[f]
