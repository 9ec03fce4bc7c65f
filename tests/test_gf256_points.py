"""GF(2^8) evaluation points when x -> x^alpha is not injective.

On the 255 nonzero points of GF(2^8), x^alpha takes 255/gcd(alpha, 255)
values.  The builders try the runs s..s+n-1 first and, when no run has
pairwise distinct x^alpha, take each next point whose x^alpha is new.  A
field with fewer than n distinct x^alpha is refused for that reason.
"""

import random

import pytest

from pmcode import report
from pmcode.cli import main, shard_name
from pmcode.construct import build_sparse_systematic, build_vanilla_systematic
from pmcode.core import build_params, build_vandermonde_encoding
from pmcode.errors import InvalidRegime
from pmcode.field import field_of_order, gf256_mul_bitwise

GF256 = field_of_order(256)
BUILDERS = {"sparse": build_sparse_systematic, "vanilla": build_vanilla_systematic}

# shortened from parents with alpha 10 or 12, so x^alpha takes 51 or 85 values
NO_RUN = [(14, 2, 11), (15, 2, 11), (15, 3, 12), (16, 2, 11), (16, 2, 13), (16, 3, 12), (16, 4, 13)]
NO_RUN_IDS = [f"{n}-{k}-{d}" for n, k, d in NO_RUN]


def power(x: int, e: int) -> int:
    acc = 1
    for _ in range(e):
        acc = gf256_mul_bitwise(acc, x)
    return acc


def first_new_powers(alpha: int, count: int) -> list[int]:
    """The first ``count`` points, in order, whose x^alpha no earlier point has."""
    seen, points = set(), []
    for x in range(1, 256):
        lam = power(x, alpha)
        if lam not in seen:
            seen.add(lam)
            points.append(x)
    return points[:count]


@pytest.mark.parametrize("construction", BUILDERS)
@pytest.mark.parametrize("n, k, d", NO_RUN, ids=NO_RUN_IDS)
def test_codes_without_a_working_run_build_from_new_powers_and_certify(monkeypatch, construction, n, k, d):
    code = BUILDERS[construction](n, k, d, field=GF256)
    assert (code.params.n, code.params.k, code.params.d) == (n, k, d)
    enc = code.enc
    size, alpha = enc.params.n, enc.params.alpha
    lam = [power(x, alpha) for x in range(256)]
    assert all(len(set(lam[s : s + size])) < size for s in range(1, 257 - size))
    assert list(enc.xs) == first_new_powers(alpha, size)
    # properties 1 and 2 hold by construction for distinct nonzero points
    # (tests/test_fast_build.py); sampling them keeps certify to seconds, where
    # the exhaustive property-2 check of [25,11,20] alone takes about 8 s
    monkeypatch.setattr(report, "PROPERTY_LIMIT", 0)
    record = report.certify(code)
    assert record.passed, record.to_text()
    assert {c.name for c in record.checks} >= {"property-3", "decode-roundtrip", "repair-exact"}


@pytest.mark.parametrize("construction", BUILDERS)
@pytest.mark.parametrize("n, k, d", NO_RUN, ids=NO_RUN_IDS)
def test_codes_without_a_working_run_round_trip_through_the_cli(tmp_path, construction, n, k, d):
    code_dir, shards = tmp_path / "code", tmp_path / "shards"
    assert main(["gen", "--n", str(n), "--k", str(k), "--d", str(d), "--gf256",
                 "--construction", construction, "--out-dir", str(code_dir)]) == 0
    desc = str(code_dir / "descriptor.json")
    payload = random.Random(n * 100 + k).randbytes(3001)
    (tmp_path / "data.bin").write_bytes(payload)
    assert main(["encode", "--descriptor", desc, "--data", str(tmp_path / "data.bin"),
                 "--out-dir", str(shards)]) == 0
    for failed in (0, n - 1):
        original = (shards / shard_name(failed)).read_bytes()
        rebuilt = tmp_path / f"rebuilt{failed}.shard"
        assert main(["repair", "--descriptor", desc, "--shard-dir", str(shards),
                     "--failed", str(failed), "--out", str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == original
    for ids in (range(k), range(n - k, n)):
        out = tmp_path / "out.bin"
        assert main(["decode", "--descriptor", desc, "--shard-dir", str(shards),
                     "--nodes", ",".join(map(str, ids)), "--out", str(out)]) == 0
        assert out.read_bytes() == payload


@pytest.mark.parametrize("n, k, start", [(12, 6, 5), (19, 6, 13), (24, 7, 101)])
def test_a_run_that_works_keeps_its_points(n, k, start):
    enc = build_vandermonde_encoding(build_params(n, k, 2 * k - 2, GF256))
    assert list(enc.xs) == list(range(start, start + n))


@pytest.mark.parametrize("construction", BUILDERS)
def test_too_few_distinct_powers_is_refused_naming_the_given_code(construction):
    # [17,2,16] is shortened from [31,16,30]: alpha 15, and x^15 takes 17 values
    with pytest.raises(InvalidRegime, match=r"^\[17,2,16\]: .* has 17 distinct x\^15, fewer than n=31$"):
        BUILDERS[construction](17, 2, 16, field=GF256)
