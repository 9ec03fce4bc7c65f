"""Construction-route tests: sparsification, basis rotation, shortening, builders."""

import itertools
import random
import re

import pytest

from pmcode import construct
from pmcode.construct import (
    RbtCode,
    ShortenedCode,
    build_rbt_systematic,
    build_sparse_systematic,
    build_vanilla_systematic,
    choose_prime_encoding,
    conjugate_message,
    equivalence_check,
    shorten,
    sparsify_encoding,
)
from pmcode.core import (
    PmVandermondeCode,
    build_params,
    build_vandermonde_encoding,
    pack_message,
    random_message,
    validate_properties,
)
from pmcode.errors import (
    BadShorteningIndex,
    DesignMismatch,
    InvalidRegime,
)
from pmcode.field import field_of_order
from pmcode.linalg import Matrix
from pmcode.systematic import remap_generic, remap_via_inclusion

from golden_vectors import G_SPARSE, G_SPARSE_SYS, PSI_SPARSE

F11 = field_of_order(11)


@pytest.fixture(scope="module")
def vanilla846():
    return PmVandermondeCode(build_vandermonde_encoding(build_params(8, 4, 6, F11)))


@pytest.fixture(scope="module")
def shortened947():
    """[9,4,7] shortened out of a [10,5,8] parent over the auto-chosen prime field."""
    return build_vanilla_systematic(9, 4, 7)


# ---------------------------------------------------------------------------
# sparsify_encoding
# ---------------------------------------------------------------------------

def test_sparsify_matches_reference(vanilla846):
    enc = sparsify_encoding(vanilla846.enc)
    assert enc.psi.data == PSI_SPARSE
    assert enc.lam == vanilla846.enc.lam
    assert all(c.ok for c in validate_properties(enc.params, enc.phi, list(enc.lam)))


def test_sparsify_is_idempotent(vanilla846):
    enc = sparsify_encoding(vanilla846.enc)
    again = sparsify_encoding(enc)
    assert again.psi == enc.psi


def test_sparse_generator_matches_reference(vanilla846):
    code = PmVandermondeCode(sparsify_encoding(vanilla846.enc))
    assert code.generator.data == G_SPARSE


def test_sparse_systematic_generator_matches_reference():
    code = build_sparse_systematic(8, 4, 6, F11)
    assert code.g_sys.data == G_SPARSE_SYS


@pytest.mark.parametrize("n,k,d,q", [(8, 4, 6, 11), (12, 6, 10, 13), (14, 7, 12, 29)])
def test_sparse_base_regime_rows_are_d_sparse(n, k, d, q):
    code = build_sparse_systematic(n, k, d)
    assert code.params.field.order == q
    for row in code.g_sys.data:
        assert sum(1 for x in row if x) <= d


def test_sparse_code_remains_mds_and_repairable():
    code = build_sparse_systematic(8, 4, 6, F11)
    rng = random.Random(41)
    m = random_message(code.params, rng)
    stored = code.stored_rows(m)
    for ids in itertools.combinations(range(8), 4):
        assert code.decode(ids, [stored[i] for i in ids]) == m
    for f in range(8):
        helpers = [i for i in range(8) if i != f][:6]
        assert list(code.run_repair(stored, f, helpers).rebuilt) == stored[f]


# ---------------------------------------------------------------------------
# basis rotation (repair by transfer)
# ---------------------------------------------------------------------------

def test_rbt_identity_rotation_changes_nothing(vanilla846):
    rot = RbtCode(vanilla846, Matrix.identity(F11, 3))
    assert rot.generator == vanilla846.generator


def test_rbt_default_rotation_serves_first_alpha_repairs_by_transfer(vanilla846):
    rot = RbtCode(vanilla846)
    params = rot.params
    rng = random.Random(43)
    m = random_message(params, rng)
    stored = rot.stored_rows(m)
    for f in range(params.alpha):
        assert rot.repair_vector(f) == [1 if t == f else 0 for t in range(params.alpha)]
        others = [i for i in range(8) if i != f]
        for helpers in itertools.combinations(others, 6):
            bundle = rot.run_repair(stored, f, helpers)
            assert list(bundle.rebuilt) == stored[f]
            for h, sym in zip(bundle.helpers, bundle.symbols):
                assert sym == stored[h][f]  # literal transfer of stored symbol f


def test_rbt_repairs_and_decodes_everywhere(vanilla846):
    rot = RbtCode(vanilla846)
    rng = random.Random(47)
    m = random_message(rot.params, rng)
    stored = rot.stored_rows(m)
    for f in range(3, 8):
        helpers = [i for i in range(8) if i != f][:6]
        assert list(rot.run_repair(stored, f, helpers).rebuilt) == stored[f]
    for ids in itertools.combinations(range(8), 4):
        assert rot.decode(ids, [stored[i] for i in ids]) == m


def test_rbt_route_and_sparse_route_agree_after_remap(vanilla846):
    """The rotated code is the sparsified code up to an invertible message
    transform, so the generic remap lands both on the same generator."""
    rot_sys = remap_generic(RbtCode(vanilla846))
    assert rot_sys.g_sys.data == G_SPARSE_SYS


def test_build_rbt_systematic():
    code = build_rbt_systematic(8, 4, 6, F11)
    assert code.g_sys.data == G_SPARSE_SYS
    with pytest.raises(InvalidRegime):
        build_rbt_systematic(9, 4, 7, F11)


# ---------------------------------------------------------------------------
# equivalence of the two views
# ---------------------------------------------------------------------------

def test_equivalence_with_default_rotation_reproduces_sparsified_matrix(vanilla846):
    p = vanilla846.enc.phi.take_rows(range(3)).transpose()
    result = equivalence_check(vanilla846.enc, p, trials=100, seed=0)
    assert result.ok
    assert result.trials == 100
    assert result.encoding.psi.data == PSI_SPARSE


def test_equivalence_with_identity(vanilla846):
    result = equivalence_check(vanilla846.enc, Matrix.identity(F11, 3), trials=20)
    assert result.ok
    assert result.encoding.psi == vanilla846.enc.psi


def test_equivalence_with_random_rotations(vanilla846):
    rng = random.Random(53)
    tried = 0
    while tried < 3:
        p = Matrix(F11, [[rng.randrange(11) for _ in range(3)] for _ in range(3)])
        if p.rank() < 3:
            continue
        tried += 1
        assert equivalence_check(vanilla846.enc, p, trials=25, seed=tried).ok


def test_conjugate_message_is_symmetric_and_invertible(vanilla846):
    params = vanilla846.params
    rng = random.Random(59)
    p = vanilla846.enc.phi.take_rows(range(3)).transpose()
    mm = pack_message(params, random_message(params, rng))
    tm = conjugate_message(mm, p)  # constructor would reject asymmetry
    back = conjugate_message(tm, p.inverse())
    assert back == mm


# ---------------------------------------------------------------------------
# shortening
# ---------------------------------------------------------------------------

def test_shortened_params_and_field(shortened947):
    p = shortened947.params
    assert (p.n, p.k, p.d, p.alpha, p.B) == (9, 4, 7, 4, 16)
    assert p.field.order == 23  # smallest workable prime for the [10,5,8] parent
    assert shortened947.depth == 1


def test_shortened_embeds_into_parent(shortened947):
    code = shortened947
    parent = code.parent
    alpha = code.params.alpha
    rng = random.Random(61)
    m = random_message(code.params, rng)
    parent_m = [0] * (code.depth * alpha) + m
    parent_stored = parent.stored_rows(parent_m)
    assert parent_stored[: code.depth] == [[0] * alpha] * code.depth
    assert code.stored_rows(m) == parent_stored[code.depth :]


def test_shortened_decodes_from_every_k_subset(shortened947):
    code = shortened947
    rng = random.Random(67)
    m = random_message(code.params, rng)
    stored = code.stored_rows(m)
    count = 0
    for ids in itertools.combinations(range(9), 4):
        rows = [stored[i] for i in ids]
        assert code.decode(ids, rows) == m
        count += 1
    assert count == 126
    # spot-check the parent-delegation path agrees
    for ids in [(0, 1, 2, 3), (5, 6, 7, 8), (0, 3, 5, 8)]:
        rows = [stored[i] for i in ids]
        assert code.decode_via_parent(ids, rows) == m


def test_shortened_repairs_with_d_helpers_exactly(shortened947):
    code = shortened947
    rng = random.Random(71)
    m = random_message(code.params, rng)
    stored = code.stored_rows(m)
    cases = 0
    for f in range(9):
        others = [i for i in range(9) if i != f]
        for helpers in itertools.combinations(others, 7):
            bundle = code.run_repair(stored, f, helpers)
            assert list(bundle.rebuilt) == stored[f]
            assert len(bundle.symbols) == 7
            cases += 1
    assert cases == 9 * 8


def test_shortened_is_systematic(shortened947):
    code = shortened947
    rng = random.Random(73)
    m = random_message(code.params, rng)
    assert code.encode_message(m)[:16] == m


def test_shorten_depth_zero_is_parent():
    parent = build_vanilla_systematic(10, 5, 8)
    child = shorten(parent, 0)
    assert child.generator == parent.generator


def test_shorten_bad_depths():
    parent = build_vanilla_systematic(10, 5, 8)
    with pytest.raises(BadShorteningIndex):
        shorten(parent, -1)
    with pytest.raises(BadShorteningIndex):
        shorten(parent, 4)


def test_shorten_rejects_permuted_systematic_parent(vanilla846):
    incl = remap_via_inclusion(PmVandermondeCode(sparsify_encoding(vanilla846.enc)))
    with pytest.raises(DesignMismatch):
        shorten(incl, 1)


# ---------------------------------------------------------------------------
# full builders and field selection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [build_vanilla_systematic, build_sparse_systematic], ids=["vanilla", "sparse"])
@pytest.mark.parametrize("n, k, d, message", [
    (8, -3, 6, "k=-3 must be at least 2"),
    (8, -1, 6, "k=-1 must be at least 2"),
    (8, 4, 5, "d=5 below 2k-2=6"),
    (8, 4, 9, "d=9 exceeds n-1=7"),
])
def test_builders_check_the_given_regime_before_building(monkeypatch, build, n, k, d, message):
    # a shortened code's parent is [n+i, k+i, d+i], i = d-2k+2: no encoding is
    # built for these, so the error names the numbers given
    def no_encoding(*args):
        raise AssertionError(f"built an encoding for {args}")

    monkeypatch.setattr(construct, "_base_encoding", no_encoding)
    with pytest.raises(InvalidRegime, match=f"^{re.escape(message)}$"):
        build(n, k, d, field=field_of_order(257))


def test_choose_prime_encoding_values():
    assert choose_prime_encoding(8, 4, 6).params.field.q == 11
    assert choose_prime_encoding(12, 6, 10).params.field.q == 13
    assert choose_prime_encoding(14, 7, 12).params.field.q == 29
    assert choose_prime_encoding(10, 5, 8).params.field.q == 23


def test_sparse_shortened_sparsity_profile_12_5_10():
    code = build_sparse_systematic(12, 5, 10)
    p = code.params
    assert p.field.order == 29  # parent is [14,7,12]
    assert isinstance(code, ShortenedCode)
    assert code.depth == 2
    i, k, d = 2, 5, 10
    for node in range(k, p.n):
        block = code.node_block(node)
        nnz = block.nonzeros_per_row()
        assert all(c <= d for c in nnz), (node, nnz)
        assert sum(1 for c in nnz if c <= k) == i, (node, nnz)
        assert all(c <= k for c in nnz[:i]), (node, nnz)  # transfer rows come first


def test_vanilla_shortened_is_dense_by_comparison():
    sparse = build_sparse_systematic(12, 5, 10)
    vanilla = build_vanilla_systematic(12, 5, 10)
    def parity_zeros(code):
        p = code.params
        rows = code.generator.data[p.k * p.alpha :]
        total = len(rows) * p.B
        return sum(1 for r in rows for x in r if x == 0) / total
    assert parity_zeros(sparse) > parity_zeros(vanilla)


def test_gf256_sparse_base_regime():
    code = build_sparse_systematic(8, 4, 6, field_of_order(256))
    assert code.params.field.kind == "binary8"
    for row in code.g_sys.data:
        assert sum(1 for x in row if x) <= 6
    rng = random.Random(79)
    m = random_message(code.params, rng)
    stored = code.stored_rows(m)
    assert code.decode([1, 3, 5, 7], [stored[i] for i in [1, 3, 5, 7]]) == m
    assert list(code.run_repair(stored, 0, [1, 2, 3, 4, 5, 6]).rebuilt) == stored[0]
