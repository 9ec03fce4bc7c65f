"""Field arithmetic tests: fixed known values, axioms, and the table oracle."""

import random

import pytest

from pmcode.errors import ZeroInverse
from pmcode.field import (
    BinaryField,
    PrimeField,
    field_of_order,
    gf256_mul_bitwise,
)


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------

def test_f11_known_values():
    f = PrimeField(11)
    assert f.add(10, 9) == 8
    assert f.mul(8, f.mul(8, 8)) == 6
    assert f.inv(5) == 9


def test_prime_field_axioms_exhaustive_f11():
    f = PrimeField(11)
    for a in range(11):
        assert f.add(a, f.sub(0, a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in range(11):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(11):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


def test_prime_field_sub_div():
    f = PrimeField(13)
    for a in range(13):
        for b in range(13):
            assert f.sub(a, b) == (a - b) % 13
            if b != 0:
                assert f.mul(f.div(a, b), b) == a % 13


def test_prime_field_rejects_composite_and_huge_moduli():
    with pytest.raises(ValueError):
        PrimeField(12)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(1 << 31)
    PrimeField((1 << 31) - 1)  # Mersenne prime, largest allowed


def test_prime_field_zero_inverse():
    f = PrimeField(11)
    with pytest.raises(ZeroInverse):
        f.inv(0)
    with pytest.raises(ZeroInverse):
        f.div(3, 0)


# ---------------------------------------------------------------------------
# GF(2^8)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("poly", [0x11D, 0x11B])
def test_gf256_tables_match_bitwise_multiply_everywhere(poly):
    f = BinaryField(poly)
    for a in range(256):
        for b in range(256):
            assert f.mul(a, b) == gf256_mul_bitwise(a, b, poly)


@pytest.mark.parametrize("poly", [0x11D, 0x11B])
def test_gf256_product_tables_match_bitwise_multiply_everywhere(poly):
    tables = BinaryField(poly).product_tables
    assert len(tables) == 256 and all(len(row) == 256 for row in tables)
    for a in range(256):
        assert list(tables[a]) == [gf256_mul_bitwise(a, b, poly) for b in range(256)]


@pytest.mark.parametrize("poly", [0x11D, 0x11B])
def test_gf256_inverse_exhaustive(poly):
    f = BinaryField(poly)
    for a in range(1, 256):
        assert gf256_mul_bitwise(a, f.inv(a), poly) == 1
    with pytest.raises(ZeroInverse):
        f.inv(0)


def test_gf256_add_is_xor_and_self_inverse():
    f = BinaryField()
    assert f.add(0x53, 0xCA) == 0x53 ^ 0xCA
    for a in range(256):
        assert f.add(a, a) == 0
        assert f.sub(a, a) == 0


def test_gf256_axioms_sampled():
    f = BinaryField()
    rng = random.Random(1)
    for _ in range(2000):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_gf256_rejects_reducible_polynomial():
    # x^8 is trivially reducible; 0, a negative number and x^9 + ... are not even of degree 8
    for poly in (0x100, 0x11B ^ 0x11B, -0x11D, 0x200 | 0x11D):
        with pytest.raises(ValueError) as exc:
            BinaryField(poly=poly)
        assert str(exc.value) == f"polynomial {poly:#x} is not irreducible of degree 8"
    BinaryField(poly=0x11B)  # the AES polynomial is irreducible too


def test_exactly_the_30_irreducible_moduli_of_degree_8_build_a_field():
    # there are 30 irreducible polynomials of degree 8 over GF(2)
    built = []
    for poly in range(0x100, 0x200):
        try:
            field = BinaryField(poly)
        except ValueError as exc:
            assert str(exc) == f"polynomial {poly:#x} is not irreducible of degree 8"
            continue
        built.append(poly)
        assert all(gf256_mul_bitwise(a, field.inv(a), poly) == 1 for a in range(1, 256))
    assert len(built) == 30
    assert {0x11B, 0x11D} <= set(built)


def test_field_of_order_dispatch():
    assert isinstance(field_of_order(11), PrimeField)
    assert isinstance(field_of_order(256), BinaryField)
    assert field_of_order(11) == field_of_order(11)
    assert field_of_order(11) != field_of_order(13)
    assert field_of_order(256) == field_of_order(256)
