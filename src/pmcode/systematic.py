"""Systematic remapping: precode the message so the first k nodes store it raw.

Two routes produce the remap.  The generic one inverts the top B x B block of
the generator, works for any MDS code, and pins the stored layout to the
packed message order exactly.  The inclusion route maps the message onto the
first k nodes' contents by triangle placement and then inverts that
first-k-nodes map in closed form; it reproduces the generic result up to a
permutation of message coordinates.  A remapped code's ``depth`` shortens it,
which gives the codes with d > 2k-2.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    CodeParams,
    LinearCode,
    PmVandermondeCode,
    build_params,
    decode_identity_block,
    has_identity_block,
    sym_index,
    unpack_message,
)
from .errors import BadShorteningIndex, DesignMismatch, LengthMismatch, Singular
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
    """A code composed with an invertible message precode (the remap), shortened by ``depth``.

    Stored node contents are the base code's contents for the remapped
    message, so the code takes the base's ``enc`` and ``p``, and with its
    own ``depth`` they fix its repair (``LinearCode``).
    ``column_permutation`` records how the top block deviates from the
    identity (the identity for the generic route).  At ``depth`` i the
    [n, k, d] code becomes its [n-i, k-i, d-i] shortening (Rashmi, Shah &
    Kumar, IEEE Trans. IT 2011): the message's first i*alpha symbols are
    pinned to zero, so the first i nodes store zeros and are dropped, and
    repair reads them as all-zero helpers.  That needs the message in
    packed order, and a base that is not itself shortened.
    """

    def __init__(self, base: LinearCode, remap: Matrix, route: str, depth: int = 0):
        bp = base.params
        full = base.generator @ remap
        perm = top_block_permutation(full, bp.B)
        if perm is None:
            raise DesignMismatch("remap did not make the top block a permutation")
        if not 0 <= depth <= bp.k - 2:
            raise BadShorteningIndex(f"shortening depth {depth} invalid for k={bp.k}")
        if base.depth:
            raise DesignMismatch("remap a shortened code's own base, at the summed depth")
        cut = depth * bp.alpha
        if cut and perm != list(range(bp.B)):
            raise DesignMismatch("shortening needs a parent that stores the message in packed order")
        params = build_params(bp.n - depth, bp.k - depth, bp.d - depth, bp.field) if depth else bp
        generator = full.submatrix(range(cut, full.rows), range(cut, bp.B)) if depth else full
        label = f"{base.label} | systematic ({route})" + (f" | shortened by {depth}" if depth else "")
        super().__init__(params, generator, label)
        self.base = base
        self.enc, self.p, self.p_inv = base.enc, base.p, base.p_inv
        self.remap = remap
        self.route = route
        self.depth = depth
        self.column_permutation = [t - cut for t in perm[cut:]]

    @property
    def g_sys(self) -> Matrix:
        return self.generator

    def decode_via_parent(self, ids: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
        """Cross-check path: decode unshortened, with the pinned nodes' rows as zeros."""
        self.check_decode_args(ids)
        i, alpha = self.depth, self.params.alpha
        parent = RemappedCode(self.base, self.remap, self.route)
        m = parent.decode(list(range(i)) + [x + i for x in ids], [[0] * alpha] * i + [list(r) for r in rows])
        if any(m[: i * alpha]):
            raise DesignMismatch("parent decode produced nonzero symbols on pinned coordinates")
        return m[i * alpha :]


def remap_generic(base: LinearCode, depth: int = 0) -> RemappedCode:
    """Right-multiply the generator by the inverse of its top B x B block, then shorten by ``depth``.

    The result stores the packed message verbatim on the first k nodes.
    """
    B = base.params.B
    try:
        remap = base.generator.take_rows(range(B)).inverse()
    except Singular as exc:
        raise Singular("top k-node block is singular; code cannot be systematic on nodes 0..k-1") from exc
    code = RemappedCode(base, remap, "generic", depth)
    if code.column_permutation != list(range(code.params.B)):
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
