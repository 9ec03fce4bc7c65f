"""Finite field arithmetic on plain integers.

Two field families are supported: prime fields GF(p) and the byte field
GF(2^8).  Elements are ordinary Python ints in ``range(order)``; the field
object only carries the arithmetic.
"""

from __future__ import annotations

from .errors import ZeroInverse

GF256_DEFAULT_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def gf256_mul_bitwise(a: int, b: int, poly: int = GF256_DEFAULT_POLY) -> int:
    """Shift-and-xor product in GF(2^8): the tests' oracle for the product
    table, whose "times x" row it also supplies."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= poly
    return acc


class PrimeField:
    """GF(p) for a prime p < 2^31."""

    kind = "prime"

    def __init__(self, q: int):
        if q >= 1 << 31:
            raise ValueError(f"modulus {q} too large (must be < 2^31)")
        if not _is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q
        self.order = q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow(a, self.q - 2, self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("prime", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


class BinaryField:
    """GF(2^8) over a given modulus polynomial, multiplied through its product table.

    Addition is xor.  ``product_tables[c]`` is row c of the 256x256 product
    table as 256 bytes, ``row.translate``-able: row[x] = c*x.  It is built
    from the bitwise product's "times x" row, and the two must agree
    everywhere (covered by the test suite).
    """

    kind = "binary8"

    def __init__(self, poly: int = GF256_DEFAULT_POLY):
        tables = [bytes(256), bytes(range(256))]
        if 0x100 <= poly < 0x200:  # degree 8: every product is a byte; any other builds no rows here
            times_x = bytes(gf256_mul_bitwise(2, x, poly) for x in range(256))
            one = int.from_bytes(tables[1], "big")
            for c in range(1, 128):
                # row 2c is row c times the element 2 (the polynomial x); row 2c+1 adds row 1
                even = tables[c].translate(times_x)
                tables += [even, (int.from_bytes(even, "big") ^ one).to_bytes(256, "big")]
        # GF(2)[x]/(poly) has a zero divisor, a nonzero c whose row holds no 1, exactly when poly factors
        if len(tables) < 256 or not all(1 in row for row in tables[1:]):
            raise ValueError(f"polynomial {poly:#x} is not irreducible of degree 8")
        self.poly = poly
        self.q = 256
        self.order = 256
        self.product_tables = tuple(tables)
        self._inverses = bytes([0] + [row.index(1) for row in tables[1:]])

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        return self.product_tables[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return self._inverses[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryField) and other.poly == self.poly

    def __hash__(self) -> int:
        return hash(("binary8", self.poly))

    def __repr__(self) -> str:
        return f"BinaryField(poly={self.poly:#x})"


def field_of_order(q: int):
    """Field with q elements: GF(2^8) for q=256, GF(q) for prime q."""
    if q == 256:
        return BinaryField()
    return PrimeField(q)
