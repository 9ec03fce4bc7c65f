"""Reference for the GF(2^8) packet layout, written apart from the kernel.

Stripes are cut into blocks of 8*p from stripe 0, with p the packet size;
the last, partial block of w stripes uses p = w // 8 and leaves its final
w % 8 stripes as plain symbols.  Packet b of a block holds stripes
b*p .. (b+1)*p, and virtual symbol i of the block takes its bit b from bit i
of packet b.  ``to_symbols`` bit-transposes every block into its virtual
symbols, ``from_symbols`` transposes back, and ``packet_oracle`` multiplies
symbol by symbol in between.
"""

from functools import lru_cache

import numpy as np


def _blocks(stripes: int, packet: int) -> list[tuple[int, int]]:
    """(first stripe, packet size) of every block, the partial one last."""
    block = 8 * packet
    full = stripes - stripes % block
    spans = [(s0, packet) for s0 in range(0, full, block)]
    if (stripes - full) // 8:
        spans.append((full, (stripes - full) // 8))
    return spans


def to_symbols(data: np.ndarray, packet: int) -> np.ndarray:
    """The virtual symbols of uint8 stripes ``data``, in the stripes' places."""
    out = np.array(data, dtype=np.uint8)
    for s0, p in _blocks(out.shape[1], packet):
        acc = np.zeros((out.shape[0], 8 * p), dtype=np.uint8)
        for b in range(8):
            acc |= np.unpackbits(out[:, s0 + b * p : s0 + (b + 1) * p], axis=1) << b
        out[:, s0 : s0 + 8 * p] = acc
    return out


def from_symbols(symbols: np.ndarray, packet: int) -> np.ndarray:
    """Inverse of ``to_symbols``."""
    out = np.array(symbols, dtype=np.uint8)
    for s0, p in _blocks(out.shape[1], packet):
        block = out[:, s0 : s0 + 8 * p].copy()
        for b in range(8):
            out[:, s0 + b * p : s0 + (b + 1) * p] = np.packbits((block >> b) & 1, axis=1)
    return out


@lru_cache(maxsize=None)
def _mul_table(field) -> np.ndarray:
    return np.array([[field.mul(c, x) for x in range(256)] for c in range(256)], dtype=np.uint8)


def symbol_product(field, mat, symbols: np.ndarray) -> np.ndarray:
    """mat @ symbols, each output symbol a sum of ``field.mul`` products."""
    table = _mul_table(field)
    out = np.zeros((mat.rows, symbols.shape[1]), dtype=np.uint8)
    for r, row in enumerate(mat.data):
        for j, c in enumerate(row):
            out[r] ^= table[c][symbols[j]]
    return out


def packet_oracle(field, mat, data: np.ndarray, packet: int) -> np.ndarray:
    """mat applied to packet-layout stripes: transpose, multiply per symbol, transpose back."""
    return from_symbols(symbol_product(field, mat, to_symbols(data, packet)), packet)
