"""Systematic remapping: precode the message so the first k nodes store it raw.

Two routes produce the remap.  The generic one inverts the top B x B block of
the generator, works for any MDS code, and pins the stored layout to the
packed message order exactly.  The inclusion route maps the message onto the
first k nodes' contents by triangle placement and then inverts that
first-k-nodes map in closed form; it reproduces the generic result up to a
permutation of message coordinates.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    CodeParams,
    LinearCode,
    PmVandermondeCode,
    decode_identity_block,
    has_identity_block,
    sym_index,
    unpack_message,
)
from .errors import DesignMismatch, LengthMismatch, Singular
from .linalg import Matrix


def packed_coords(params: CodeParams, t: int) -> tuple[str, int, int]:
    """Inverse of the packing order: which half ('a' or 'b') and which (i <= j) cell."""
    half = params.B // 2
    if not 0 <= t < params.B:
        raise LengthMismatch(f"packed index {t} out of range for B={params.B}")
    which = "a"
    if t >= half:
        which = "b"
        t -= half
    alpha = params.alpha
    for i in range(alpha):
        width = alpha - i
        if t < width:
            return which, i, i + t
        t -= width
    raise AssertionError("unreachable")


def triangular_inclusion(params: CodeParams, m: Sequence[int]) -> Matrix:
    """Lay the B message symbols into the k x alpha contents of the first k nodes.

    The upper triangle of the first alpha rows (diagonal included) receives
    S_a's packed symbols; the strict lower triangle receives S_b's
    off-diagonal symbols (transposed position); the last row receives S_b's
    diagonal.
    """
    alpha, half = params.alpha, params.B // 2
    if len(m) != params.B:
        raise LengthMismatch(f"message has {len(m)} symbols, expected B={params.B}")
    c = [[0] * alpha for _ in range(params.k)]
    for i in range(alpha):
        for j in range(i, alpha):
            c[i][j] = m[sym_index(alpha, i, j)]
            if i != j:
                c[j][i] = m[half + sym_index(alpha, i, j)]
    for j in range(alpha):
        c[alpha][j] = m[half + sym_index(alpha, j, j)]
    return Matrix(params.field, c)


def top_block_permutation(g_sys: Matrix, B: int) -> Optional[list[int]]:
    """If the top B x B block is a permutation matrix, return perm with row t = e_perm[t]."""
    perm = []
    for t in range(B):
        row = g_sys.data[t][:B]
        nz = [s for s, x in enumerate(row) if x]
        if len(nz) != 1 or row[nz[0]] != 1:
            return None
        perm.append(nz[0])
    return perm if sorted(perm) == list(range(B)) else None


class RemappedCode(LinearCode):
    """A code composed with an invertible message precode (the remap).

    Stored node contents are the base code's contents for the remapped
    message, so repair is untouched; only the message <-> codeword relation
    changes.  ``column_permutation`` records how the top block deviates from
    the identity (it is the identity for the generic route).
    """

    def __init__(self, base: LinearCode, remap: Matrix, route: str):
        g_sys = base.generator @ remap
        super().__init__(base.params, g_sys, f"{base.label} | systematic ({route})")
        perm = top_block_permutation(g_sys, base.params.B)
        if perm is None:
            raise DesignMismatch("remap did not make the top block a permutation")
        self.base = base
        self.remap = remap
        self.route = route
        self.column_permutation = perm

    @property
    def g_sys(self) -> Matrix:
        return self.generator

    def repair_vector(self, failed: int) -> list[int]:
        return self.base.repair_vector(failed)

    def repair_matrix(self, failed: int, helpers: Sequence[int]) -> Matrix:
        return self.base.repair_matrix(failed, helpers)


def remap_generic(base: LinearCode) -> RemappedCode:
    """Right-multiply the generator by the inverse of its top B x B block.

    The result stores the packed message verbatim on the first k nodes.
    """
    B = base.params.B
    try:
        remap = base.generator.take_rows(range(B)).inverse()
    except Singular as exc:
        raise Singular("top k-node block is singular; code cannot be systematic on nodes 0..k-1") from exc
    code = RemappedCode(base, remap, "generic")
    if code.column_permutation != list(range(B)):
        raise DesignMismatch("generic remap must reproduce the message in packed order")
    return code


def inclusion_matrix(params: CodeParams) -> Matrix:
    """The B x B permutation: column s is the flattened triangle placement of e_s."""
    B = params.B
    cols = []
    for s in range(B):
        e = [0] * B
        e[s] = 1
        c = triangular_inclusion(params, e)
        cols.append([x for row in c.data for x in row])
    return Matrix.from_columns(params.field, cols)


def inclusion_remap_matrix(base: LinearCode) -> Matrix:
    """General-form inclusion remap: pre-image of the triangle placement under
    the first-k-nodes map (works for any MDS base code)."""
    B = base.params.B
    g_k = base.generator.take_rows(range(B))
    return g_k.inverse() @ inclusion_matrix(base.params)


def remap_via_inclusion(code: PmVandermondeCode) -> RemappedCode:
    """Closed-form inclusion route for identity-block designs.

    Each remap column is recovered by placing a basis message into the first
    k nodes' triangle slots and decoding that placement through the
    identity-block inverse.  The top block of the result is a permutation of
    the packed order, recorded on the returned code.
    """
    if not isinstance(code, PmVandermondeCode) or not has_identity_block(code.enc):
        raise DesignMismatch("inclusion route needs an identity-block encoding matrix")
    params = code.params
    lam_k = list(code.enc.lam[: params.k])
    r = code.enc.phi.row(params.alpha)
    cols = []
    for s in range(params.B):
        e = [0] * params.B
        e[s] = 1
        placed = triangular_inclusion(params, e)
        mm = decode_identity_block(params, placed, lam_k, r)
        cols.append(unpack_message(params, mm))
    remap = Matrix.from_columns(params.field, cols)
    return RemappedCode(code, remap, "inclusion")
