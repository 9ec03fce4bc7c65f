"""The O(n) property check used when building a code, against the exhaustive one.

For distinct nonzero Vandermonde points, properties 1 and 2 hold by
construction, so the builders only check property 3 (the x^alpha pairwise
distinct).  These tests run a reference search with the full
``validate_properties`` on every candidate, and require the same points, the
same matrices and a passing exhaustive report.
"""

import pytest

from pmcode.report import certify
from pmcode.cli import code_from_descriptor, descriptor_for, generation_artifacts
from pmcode.construct import build_sparse_systematic, choose_prime_encoding, sparsify_encoding
from pmcode.core import build_params, build_vandermonde_encoding, validate_properties
from pmcode.errors import DuplicateEvaluationPoint, PropertyViolation
from pmcode.field import PrimeField, field_of_order
from pmcode.linalg import Matrix, vandermonde

GF256 = field_of_order(256)
F11 = field_of_order(11)
F13 = field_of_order(13)

# every base-regime (n, k), d = 2k-2 <= n-1, with n <= 12
BASE_REGIME = [(n, k) for n in range(3, 13) for k in range(2, n) if 2 * k - 2 <= n - 1]


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % f for f in range(2, int(q ** 0.5) + 1))


def reference_points(params):
    """First candidate run that passes the full check, with its property rows.

    Prime fields try 1..n only; GF(2^8) tries the runs s..s+n-1 in order.
    """
    field, n, alpha = params.field, params.n, params.alpha
    starts = [1] if field.kind == "prime" else range(1, field.order - n + 1)
    for s in starts:
        xs = list(range(s, s + n))
        phi = vandermonde(field, xs, alpha)
        try:
            return xs, validate_properties(params, phi, phi.column_vector(alpha - 1))
        except PropertyViolation:
            continue
    return None, None


def reference_prime(n: int, k: int):
    """Smallest prime q > n whose points 1..n pass the full check."""
    q = n + 1
    while True:
        if _is_prime(q):
            params = build_params(n, k, 2 * k - 2, PrimeField(q))
            xs, report = reference_points(params)
            if xs is not None:
                return params, xs, report
        q += 1


@pytest.fixture
def rank_calls(monkeypatch):
    """Count Matrix.rank calls made while the test runs."""
    calls = []
    rank = Matrix.rank

    def counted(self):
        calls.append((self.rows, self.cols))
        return rank(self)

    monkeypatch.setattr(Matrix, "rank", counted)
    return calls


def _assert_same_as_reference(enc, params, xs, report):
    assert list(enc.xs) == xs
    phi = vandermonde(params.field, xs, params.alpha)
    assert enc.phi == phi
    assert list(enc.lam) == phi.column_vector(params.alpha - 1)
    assert [c.mode for c in report] == ["exhaustive"] * 3
    assert validate_properties(params, enc.phi, list(enc.lam)) == report


@pytest.mark.parametrize("n, k", BASE_REGIME)
def test_gf256_points_match_exhaustive_search(n, k):
    params = build_params(n, k, 2 * k - 2, GF256)
    xs, report = reference_points(params)
    _assert_same_as_reference(build_vandermonde_encoding(params), params, xs, report)


@pytest.mark.parametrize("n, k", BASE_REGIME)
def test_chosen_prime_matches_exhaustive_search(n, k):
    params, xs, report = reference_prime(n, k)
    enc = choose_prime_encoding(n, k, 2 * k - 2)
    assert enc.params.field.q == params.field.q
    _assert_same_as_reference(enc, params, xs, report)


@pytest.mark.parametrize(
    "n, k, q",
    [(18, 9, 256), (14, 7, 256), (12, 6, 257)],
    ids=["18-9-16-gf256", "14-7-12-gf256", "12-6-10-f257"],
)
def test_shipped_parents_match_exhaustive_search(n, k, q):
    params = build_params(n, k, 2 * k - 2, field_of_order(q))
    xs, report = reference_points(params)
    _assert_same_as_reference(build_vandermonde_encoding(params), params, xs, report)


@pytest.mark.parametrize(
    "q, xs, which, witness",
    [
        (13, [1, 2, 3, 4, 5, 14], 3, (0, 5)),   # 14 repeats 1 in F_13
        (13, [1, 2, 3, 4, 5, -1], 3, (0, 5)),   # -1 == 12, and 12^2 == 1^2
        (13, [1, 2, 3, 4, 5, 0], 1, (0, 5)),
        (13, [0, 1, 2, 3, 4, 5], 1, (0, 1)),
        (13, [1, 2, 3, 4, 5, 13], 1, (0, 5)),   # 13 is zero in F_13
        (13, [1, 2, 3, 10, 4, 5], 3, (2, 3)),   # distinct nonzero, 10^2 == 3^2
    ],
)
def test_explicit_points_keep_their_witnesses(q, xs, which, witness):
    params = build_params(6, 3, 4, field_of_order(q))
    with pytest.raises(PropertyViolation) as exc:
        build_vandermonde_encoding(params, xs=xs)
    assert (exc.value.which, exc.value.witness) == (which, witness)


def test_explicit_zero_point_gf256_keeps_its_witness():
    params = build_params(8, 4, 6, GF256)
    with pytest.raises(PropertyViolation) as exc:
        build_vandermonde_encoding(params, xs=[1, 2, 3, 4, 5, 6, 7, 0])
    assert (exc.value.which, exc.value.witness) == (1, (0, 1, 7))


def test_explicit_repeated_point_is_still_rejected_by_vandermonde():
    with pytest.raises(DuplicateEvaluationPoint):
        build_vandermonde_encoding(build_params(6, 3, 4, F13), xs=[1, 2, 2, 4, 5, 6])


def test_build_makes_no_rank_calls_until_validation_is_read(rank_calls):
    enc = build_vandermonde_encoding(build_params(8, 4, 6, F11))
    assert rank_calls == []
    assert all(c.ok for c in validate_properties(enc.params, enc.phi, list(enc.lam)))
    assert len(rank_calls) == 56 + 28  # C(8,3) + C(8,6)


def test_sparsify_checks_nothing(rank_calls):
    params = build_params(8, 4, 6, F11)
    sparse = sparsify_encoding(build_vandermonde_encoding(params))
    assert rank_calls == []
    rows = validate_properties(params, sparse.phi, list(sparse.lam))
    assert [c.mode for c in rows] == ["exhaustive"] * 3


def test_paper_code_rebuilds_without_rank_calls(rank_calls):
    code = build_sparse_systematic(17, 8, 15, field=GF256)
    desc = descriptor_for(code, "sparse", generation_artifacts(code))
    rank_calls.clear()
    rebuilt = code_from_descriptor(desc)
    assert rank_calls == []
    assert rebuilt.generator == code.generator


def test_certify_still_runs_the_exhaustive_check(rank_calls):
    code = build_sparse_systematic(8, 4, 6, field=F11)
    rank_calls.clear()
    record = certify(code)
    rows = {c.name: (c.mode, c.cases, c.ok) for c in record.checks}
    assert rows["property-1"] == ("exhaustive", 56, True)
    assert rows["property-2"] == ("exhaustive", 28, True)
    assert rows["property-3"] == ("exhaustive", 8, True)
    # the property rows and the k-subset-rank row are every rank computation made
    assert len(rank_calls) == 56 + 28 + rows["k-subset-rank"][1]
