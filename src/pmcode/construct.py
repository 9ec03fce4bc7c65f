"""Sparse systematic constructions.

Three mechanisms reduce encoding work without touching the code's rate,
repair, or reconstruction guarantees:

* ``sparsify_encoding`` right-multiplies Phi by the inverse of its top
  alpha x alpha block, which drives the generator toward d-sparse rows in the
  base regime d = 2k-2;
* ``RbtCode`` stores each node's symbols in a rotated basis so that helpers
  can serve repairs of the first alpha nodes by literal transfer of one
  stored symbol (P = Phi_alpha^T);
* ``ShortenedCode`` derives an [n, k, d] code with d > 2k-2 from a
  base-regime systematic parent [n+i, k+i, d+i], i = d-2k+2, by pinning the
  parent's first i nodes to zero and dropping them.

``build_vanilla_systematic`` and ``build_sparse_systematic`` compose these
into ready-to-use codes for any valid (n, k, d), choosing the smallest
workable prime field when none is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .core import (
    EncodingMatrix,
    LinearCode,
    MessageMatrix,
    PmVandermondeCode,
    _check_regime,
    build_params,
    build_vandermonde_encoding,
    encoding_from_phi_lambda,
    pack_message,
    random_message,
)
from .errors import (
    BadShorteningIndex,
    DesignMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidRegime,
    PropertyViolation,
)
from .field import PrimeField
from .linalg import Matrix
from .systematic import RemappedCode, remap_generic


# ---------------------------------------------------------------------------
# encoding-matrix sparsification
# ---------------------------------------------------------------------------

def sparsify_encoding(enc: EncodingMatrix) -> EncodingMatrix:
    """Replace Phi by Phi * Phi_alpha^{-1}; lambda is untouched.

    The top alpha rows of the new Phi form the identity, so the first alpha
    nodes of the remapped code will each store single message symbols and
    every generator row ends up d-sparse.  All three construction properties
    survive right-multiplication by an invertible matrix, so none is checked
    again: ``inverse()`` raising ``Singular`` is the only check needed.
    ``certify`` or ``validate_properties`` re-derive them on demand.
    """
    phi = enc.phi @ enc.phi.take_rows(range(enc.params.alpha)).inverse()
    return replace(enc, phi=phi)


# ---------------------------------------------------------------------------
# repair-by-transfer basis change
# ---------------------------------------------------------------------------

class RbtCode(LinearCode):
    """Store y_i = P^T c_i instead of c_i, for an invertible alpha x alpha P.

    Transfer symbols are preserved: a helper dots its stored row with
    P^{-1} phi_f, which equals the original c_i . phi_f.  With the default
    P = Phi_alpha^T, the repair vector for failed node f < alpha is e_f, so
    helpers serve those repairs by sending stored symbol f unchanged.
    """

    def __init__(self, base: PmVandermondeCode, p: Optional[Matrix] = None):
        params = base.params
        alpha = params.alpha
        if p is None:
            p = base.enc.phi.take_rows(range(alpha)).transpose()
        if (p.rows, p.cols) != (alpha, alpha):
            raise DimensionMismatch(f"P is {p.rows}x{p.cols}, expected {alpha}x{alpha}")
        p_t = p.transpose()
        generator = Matrix.vstack(
            [p_t @ base.node_block(i) for i in range(params.n)]
        )
        super().__init__(params, generator, f"{base.label} | rbt")
        self.base = base
        self.p = p
        self.p_t = p_t
        self.p_inv = p.inverse()

    def repair_vector(self, failed: int) -> list[int]:
        return self.p_inv.mul_vector(self.base.repair_vector(failed))

    def repair_matrix(self, failed: int, helpers: Sequence[int]) -> Matrix:
        return self.p_t @ self.base.repair_matrix(failed, helpers)


# ---------------------------------------------------------------------------
# shortening
# ---------------------------------------------------------------------------

class ShortenedCode(LinearCode):
    """Drop the first i nodes (and message symbols) of a systematic parent.

    Messages of the child correspond to parent messages with the first
    i*alpha symbols zero; since the parent is systematic, the dropped nodes
    store exactly those zeros, so repair and decode can treat them as
    always-available all-zero helpers.
    """

    def __init__(self, parent: RemappedCode, i: int):
        pp = parent.params
        if i < 0 or i > pp.k - 2:
            raise BadShorteningIndex(f"shortening depth {i} invalid for k={pp.k}")
        if parent.column_permutation != list(range(pp.B)):
            raise DesignMismatch("shortening needs a parent that stores the message in packed order")
        params = build_params(pp.n - i, pp.k - i, pp.d - i, pp.field)
        alpha = params.alpha
        cut = i * alpha
        generator = parent.generator.submatrix(
            range(cut, pp.n * alpha), range(cut, pp.B)
        )
        super().__init__(params, generator, f"{parent.label} | shortened by {i}")
        self.parent = parent
        self.depth = i

    def repair_vector(self, failed: int) -> list[int]:
        if not 0 <= failed < self.params.n:
            raise IndexOutOfRange(f"node {failed} of {self.params.n}")
        return self.parent.repair_vector(failed + self.depth)

    def repair_matrix(self, failed: int, helpers: Sequence[int]) -> Matrix:
        self.check_repair_args(failed, helpers)
        i = self.depth
        parent_helpers = list(range(i)) + [h + i for h in helpers]
        full = self.parent.repair_matrix(failed + i, parent_helpers)
        # dropped nodes store zeros, so their columns never contribute
        return full.submatrix(range(full.rows), range(i, full.cols))

    def decode_via_parent(self, ids: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
        """Cross-check path: decode in the parent with the dropped nodes as zero helpers."""
        self.check_decode_args(ids)
        i = self.depth
        alpha = self.params.alpha
        parent_ids = list(range(i)) + [x + i for x in ids]
        parent_rows = [[0] * alpha for _ in range(i)] + [list(r) for r in rows]
        m_parent = self.parent.decode(parent_ids, parent_rows)
        if any(m_parent[: i * alpha]):
            raise DesignMismatch("parent decode produced nonzero symbols on dropped coordinates")
        return m_parent[i * alpha :]


def shorten(parent: RemappedCode, i: int) -> ShortenedCode:
    return ShortenedCode(parent, i)


def underlying_encoding(code: LinearCode):
    """Walk wrapper chains down to the direct construction, if there is one."""
    while code is not None and not isinstance(code, PmVandermondeCode):
        code = getattr(code, "base", None) or getattr(code, "parent", None)
    return None if code is None else code.enc


# ---------------------------------------------------------------------------
# field selection and full builders
# ---------------------------------------------------------------------------

def _next_prime(x: int) -> int:
    from .field import _is_prime

    while not _is_prime(x):
        x += 1
    return x


def choose_prime_encoding(n: int, k: int, d: int) -> EncodingMatrix:
    """Smallest prime field of order > n whose default points validate."""
    p = _next_prime(n + 1)
    while True:
        try:
            params = build_params(n, k, d, PrimeField(p))
            return build_vandermonde_encoding(params)
        except PropertyViolation:
            p = _next_prime(p + 1)


def _base_encoding(n: int, k: int, d: int, field, i: int = 0) -> EncodingMatrix:
    """The encoding of the given [n, k, d] code's base-regime parent [n+i, k+i, d+i]."""
    if field is None:
        return choose_prime_encoding(n + i, k + i, d + i)
    try:
        return build_vandermonde_encoding(build_params(n + i, k + i, d + i, field))
    except InvalidRegime as exc:
        raise InvalidRegime(f"[{n},{k},{d}]: {exc}") from exc


def build_vanilla_systematic(n: int, k: int, d: int, field=None) -> RemappedCode | ShortenedCode:
    """Systematic product-matrix code for any 2k-2 <= d <= n-1 (dense generator)."""
    _check_regime(n, k, d)  # before a shortening parent is built
    i = d - 2 * k + 2
    code = remap_generic(PmVandermondeCode(_base_encoding(n, k, d, field, i)))
    return shorten(code, i) if i else code


def build_sparse_systematic(n: int, k: int, d: int, field=None) -> RemappedCode | ShortenedCode:
    """Systematic code whose parity generator rows are sparse.

    In the base regime the encoding matrix is sparsified directly; each
    generator row then combines at most d message symbols.  For d > 2k-2 the
    code is shortened out of a repair-by-transfer parent: each parity node
    block gets i = d-2k+2 rows with at most k nonzeros and k-1 rows with at
    most d nonzeros.
    """
    _check_regime(n, k, d)  # before a shortening parent is built
    i = d - 2 * k + 2
    enc = _base_encoding(n, k, d, field, i)
    if i == 0:
        enc = sparsify_encoding(enc)
        return remap_generic(PmVandermondeCode(enc, f"sparse {enc.params}"))
    return shorten(remap_generic(RbtCode(PmVandermondeCode(enc))), i)


def build_rbt_systematic(n: int, k: int, d: int, field=None) -> RemappedCode:
    """Systematic repair-by-transfer code (base regime only)."""
    if d != 2 * k - 2:
        raise InvalidRegime(f"repair-by-transfer construction requires d=2k-2, got d={d}")
    enc = _base_encoding(n, k, d, field)
    return remap_generic(RbtCode(PmVandermondeCode(enc)))


# ---------------------------------------------------------------------------
# equivalence of the two sparsification views
# ---------------------------------------------------------------------------

def conjugate_message(mm: MessageMatrix, p: Matrix) -> MessageMatrix:
    """T(M): both symmetric halves become P^{-T} S P^{-1} (symmetry is preserved)."""
    p_inv = p.inverse()
    p_inv_t = p_inv.transpose()
    return MessageMatrix(p_inv_t @ mm.sa @ p_inv, p_inv_t @ mm.sb @ p_inv)


@dataclass(frozen=True)
class EquivalenceResult:
    encoding: EncodingMatrix  # Psi' = [Phi P^{-T}  Lambda Phi P^{-T}]
    trials: int
    ok: bool


def equivalence_check(enc: EncodingMatrix, p: Matrix, trials: int = 100, seed: int = 0) -> EquivalenceResult:
    """Verify that basis-rotated storage of T(M) equals Psi'-encoding of M.

    The rotated code stores (Psi N) P for message matrix N; feeding it
    N = T(M) must reproduce Psi' M exactly, where Psi' applies P^{-T} to Phi.
    Checked on ``trials`` seeded random messages.
    """
    import random

    params = enc.params
    p_inv_t = p.inverse().transpose()
    phi_prime = enc.phi @ p_inv_t
    enc_prime = encoding_from_phi_lambda(params, phi_prime, list(enc.lam), xs=enc.xs)

    rng = random.Random(seed)
    ok = True
    for _ in range(trials):
        mm = pack_message(params, random_message(params, rng))
        rotated = (enc.psi @ conjugate_message(mm, p).stacked()) @ p
        direct = enc_prime.psi @ mm.stacked()
        if rotated != direct:
            ok = False
            break
    return EquivalenceResult(encoding=enc_prime, trials=trials, ok=ok)
