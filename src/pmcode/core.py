"""Product-matrix regenerating codes at the minimum-storage point.

An [n, k, d] code stores alpha = d-k+1 symbols per node and carries
B = k*alpha message symbols.  The direct construction applies to the base
regime d = 2k-2, where the message is packed into two symmetric alpha x alpha
matrices S_a, S_b and node i stores

    c_i = phi_i * S_a + lambda_i * phi_i * S_b

with psi_i = (phi_i, lambda_i * phi_i) a row of the n x d encoding matrix
Psi = [Phi  Lambda*Phi].  Codes with d > 2k-2 are obtained by shortening a
base-regime parent (see :mod:`pmcode.construct`).

Everything here is exact pure-Python arithmetic, and a code encodes,
decodes and repairs one stripe at a time.  What the numpy bulk path in
:mod:`pmcode.analysis` applies to many stripes at once is built here: the
generator, and once per node set one straight-line program per operation,
or the matrix it computes when that costs the kernel no more:
``LinearCode.decode_program``, a sparse elimination of the node rows that
the per-stripe ``decode`` also runs, and the program of a ``RepairPlan``,
``helper_plan`` from d helpers or ``rebuild_plan`` from k nodes, of which
``repair_plan`` picks the one that reads fewer symbols.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    AsymmetryDetected,
    BadCount,
    BadHelperCount,
    DesignMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidRegime,
    LengthMismatch,
    PropertyViolation,
    Singular,
)
from .linalg import Matrix, Program, compose, elimination_program, kernel_cost, vandermonde


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int
    field: object

    @property
    def alpha(self) -> int:
        return self.d - self.k + 1

    @property
    def B(self) -> int:
        return self.k * self.alpha

    def __str__(self) -> str:
        return f"[{self.n},{self.k},{self.d}] q={self.field.order}"


def _check_regime(n: int, k: int, d: int) -> None:
    """Raise InvalidRegime unless k >= 2 and 2k-2 <= d <= n-1."""
    if k < 2:
        raise InvalidRegime(f"k={k} must be at least 2")
    if d < 2 * k - 2:
        raise InvalidRegime(f"d={d} below 2k-2={2 * k - 2}")
    if d > n - 1:
        raise InvalidRegime(f"d={d} exceeds n-1={n - 1}")


def build_params(n: int, k: int, d: int, field) -> CodeParams:
    _check_regime(n, k, d)
    if field.order <= n:
        raise InvalidRegime(
            f"field of order {field.order} too small for n={n} distinct nonzero points"
        )
    return CodeParams(n, k, d, field)


# ---------------------------------------------------------------------------
# encoding matrix and its properties
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """What one check ran and what failed: ``failures`` holds the witnesses."""

    name: str
    mode: str      # "exhaustive" or "sampled"
    cases: int
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class EncodingMatrix:
    params: CodeParams
    phi: Matrix              # n x alpha
    lam: tuple               # n diagonal entries of Lambda
    xs: Optional[tuple]      # evaluation points when Vandermonde-built

    @cached_property
    def psi(self) -> Matrix:
        """The n x d encoding matrix [Phi  Lambda*Phi]."""
        return psi_from_phi_lambda(self.params, self.phi, self.lam)


def subset_cases(n: int, size: int, limit: int, samples: int, rng: random.Random):
    """Every size-subset of range(n) when there are at most ``limit``, else ``samples`` drawn by ``rng``.

    Returns (mode, list of sorted index tuples).
    """
    if math.comb(n, size) <= limit:
        return "exhaustive", list(itertools.combinations(range(n), size))
    return "sampled", [tuple(sorted(rng.sample(range(n), size))) for _ in range(samples)]


def validate_properties(
    params: CodeParams,
    phi: Matrix,
    lam: Sequence[int],
    exhaustive_limit: int = 100_000,
    samples: int = 1000,
    seed: int = 0,
) -> tuple:
    """Check the three construction properties; returns one CheckResult row each.

    1. ``property-1``: every alpha-subset of Phi's rows is nonsingular;
    2. ``property-2``: every d-subset of Psi's rows is nonsingular;
    3. ``property-3``: the n lambda entries are pairwise distinct.

    A subset check is exhaustive when the subset count is at most
    ``exhaustive_limit``, otherwise it runs ``samples`` subsets drawn by one
    generator seeded with ``seed``.  The first failure raises
    PropertyViolation; its ``check`` is the failed row.
    """
    n, d, alpha = params.n, params.d, params.alpha
    distinct = _check_lambdas_distinct(lam)
    psi = psi_from_phi_lambda(params, phi, lam)
    rng = random.Random(seed)
    checks = []
    for which, name, mat, size in ((1, "Phi", phi, alpha), (2, "Psi", psi, d)):
        mode, subsets = subset_cases(n, size, exhaustive_limit, samples, rng)
        for ran, sub in enumerate(subsets, 1):
            if mat.take_rows(sub).rank() < size:
                row = CheckResult(f"property-{which}", mode, ran, (sub,))
                raise PropertyViolation(which, sub, f"{name} rows {sub} are singular", row)
        checks.append(CheckResult(f"property-{which}", mode, len(subsets)))
    return (*checks, distinct)


def _check_lambdas_distinct(lam: Sequence[int]) -> CheckResult:
    """Property 3: raise PropertyViolation(3, (i, j)) for the first repeated lambda."""
    seen = {}
    for i, v in enumerate(lam):
        if v in seen:
            row = CheckResult("property-3", "exhaustive", i + 1, ((seen[v], i),))
            raise PropertyViolation(3, (seen[v], i), f"lambda[{seen[v]}] == lambda[{i}] == {v}", row)
        seen[v] = i
    return CheckResult("property-3", "exhaustive", len(lam))


def psi_from_phi_lambda(params: CodeParams, phi: Matrix, lam: Sequence[int]) -> Matrix:
    mul = params.field.mul
    data = [
        row + [mul(lam[i], x) for x in row]
        for i, row in enumerate([list(r) for r in phi.data])
    ]
    return Matrix(params.field, data)


def encoding_from_phi_lambda(
    params: CodeParams,
    phi: Matrix,
    lam: Sequence[int],
    xs: Optional[Sequence[int]] = None,
    validate: bool = True,
) -> EncodingMatrix:
    """Encoding matrix from a given Phi and lambda.

    With ``validate`` the three properties are checked by
    ``validate_properties``, as a Phi built elsewhere needs; callers that
    guarantee them by construction pass ``validate=False``.
    """
    if params.d != 2 * params.k - 2:
        raise InvalidRegime(
            f"direct construction requires d=2k-2, got d={params.d}, k={params.k}"
        )
    if (phi.rows, phi.cols) != (params.n, params.alpha):
        raise DimensionMismatch(
            f"Phi is {phi.rows}x{phi.cols}, expected {params.n}x{params.alpha}"
        )
    if len(lam) != params.n:
        raise LengthMismatch(f"lambda has {len(lam)} entries, expected {params.n}")
    if validate:
        validate_properties(params, phi, lam)  # raises PropertyViolation
    return EncodingMatrix(
        params=params,
        phi=phi,
        lam=tuple(lam),
        xs=tuple(xs) if xs is not None else None,
    )


def build_vandermonde_encoding(params: CodeParams, xs: Optional[Sequence[int]] = None) -> EncodingMatrix:
    """Vandermonde instantiation: psi[i][j] = xs[i]^(j+1), lambda_i = xs[i]^alpha.

    For distinct nonzero points, properties 1 and 2 hold by construction:
    any alpha rows of Phi form diag(x) times a Vandermonde matrix, and any
    d = 2*alpha rows of Psi are the rows x^1..x^d.  Only property 3 (the
    x^alpha pairwise distinct) is then checked, in O(n).  Explicit ``xs``
    that are not all canonical nonzero field elements go through the full
    ``validate_properties`` check instead.

    With explicit ``xs`` a property violation is an error.  Without, the
    default points are tried first (1..n); over GF(2^8), where x -> x^alpha
    need not be injective, successive runs (s, .., s+n-1) are tried until
    property 3 holds, and when none does, each next point whose x^alpha is
    new.  Fewer than n distinct x^alpha raise InvalidRegime.
    """
    field = params.field
    alpha = params.alpha

    def attempt(points):
        phi = vandermonde(field, points, alpha)  # raises on a repeated point
        lam = phi.column_vector(alpha - 1)  # x^alpha is Phi's last column
        nonzero = all(isinstance(x, int) and 0 < x < field.order for x in points)
        if nonzero:
            _check_lambdas_distinct(lam)
        return encoding_from_phi_lambda(params, phi, lam, points, validate=not nonzero)

    if params.d != 2 * params.k - 2:
        raise InvalidRegime(
            f"direct construction requires d=2k-2, got d={params.d}, k={params.k}"
        )
    if xs is not None:
        return attempt(list(xs))
    if field.kind == "prime":
        return attempt(list(range(1, params.n + 1)))
    for s in range(1, field.order - params.n + 1):
        try:
            return attempt(list(range(s, s + params.n)))
        except PropertyViolation:
            pass
    points = range(1, field.order)
    first = {}  # x^alpha -> the first point that has it
    for x, lam in zip(points, vandermonde(field, points, alpha).column_vector(alpha - 1)):
        first.setdefault(lam, x)
    if len(first) < params.n:
        raise InvalidRegime(f"{field!r} has {len(first)} distinct x^{alpha}, fewer than n={params.n}")
    return attempt(list(first.values())[: params.n])


# ---------------------------------------------------------------------------
# message packing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MessageMatrix:
    """The pair of symmetric alpha x alpha matrices holding one stripe."""

    sa: Matrix
    sb: Matrix

    def __post_init__(self):
        for m in (self.sa, self.sb):
            if m.rows != m.cols:
                raise DimensionMismatch("message halves must be square")
            for i in range(m.rows):
                for j in range(i):
                    if m.data[i][j] != m.data[j][i]:
                        raise AsymmetryDetected(f"entry ({i},{j}) != ({j},{i})")
        if self.sa.field != self.sb.field or self.sa.rows != self.sb.rows:
            raise DimensionMismatch("message halves disagree")

    def stacked(self) -> Matrix:
        return Matrix.vstack([self.sa, self.sb])


def sym_index(alpha: int, i: int, j: int) -> int:
    """Row-major position of (i, j) within the upper triangle of an alpha x alpha matrix."""
    if i > j:
        i, j = j, i
    return i * alpha - i * (i - 1) // 2 + (j - i)


def pack_message(params: CodeParams, m: Sequence[int]) -> MessageMatrix:
    """Fill S_a from the first B/2 symbols and S_b from the rest, upper triangles row-major."""
    alpha = params.alpha
    if len(m) != params.B:
        raise LengthMismatch(f"message has {len(m)} symbols, expected B={params.B}")
    half = params.B // 2
    sa = [[0] * alpha for _ in range(alpha)]
    sb = [[0] * alpha for _ in range(alpha)]
    for i in range(alpha):
        for j in range(i, alpha):
            t = sym_index(alpha, i, j)
            sa[i][j] = sa[j][i] = m[t]
            sb[i][j] = sb[j][i] = m[half + t]
    f = params.field
    return MessageMatrix(Matrix(f, sa), Matrix(f, sb))


def unpack_message(params: CodeParams, mm: MessageMatrix) -> list[int]:
    alpha = params.alpha
    if mm.sa.rows != alpha:
        raise DimensionMismatch(f"message matrices are {mm.sa.rows}x{mm.sa.cols}, expected {alpha}")
    half = params.B // 2
    m = [0] * params.B
    for i in range(alpha):
        for j in range(i, alpha):
            t = sym_index(alpha, i, j)
            m[t] = mm.sa.data[i][j]
            m[half + t] = mm.sb.data[i][j]
    return m


def random_message(params: CodeParams, rng: random.Random) -> list[int]:
    return [rng.randrange(params.field.order) for _ in range(params.B)]


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode(enc: EncodingMatrix, mm: MessageMatrix) -> Matrix:
    """All node contents for one stripe: the n x alpha codeword matrix Psi * M."""
    if mm.sa.field != enc.params.field:
        raise DimensionMismatch("message field differs from code field")
    if mm.sa.rows != enc.params.alpha:
        raise DimensionMismatch("message size differs from code alpha")
    return enc.psi @ mm.stacked()


def generator_matrix(enc: EncodingMatrix) -> Matrix:
    """Unwrap Psi * M into an (n*alpha) x B generator over the packed message vector.

    Row i*alpha + j gives stored symbol j of node i.  Packed coordinate
    sym_index(alpha, t, j) of S_a receives phi[i][t]; the S_b half, shifted by
    B/2, receives lambda_i * phi[i][t].
    """
    params = enc.params
    n, alpha, half = params.n, params.alpha, params.B // 2
    add, mul = params.field.add, params.field.mul
    g = Matrix.zeros(params.field, n * alpha, params.B)
    for i in range(n):
        phi_row = enc.phi.data[i]
        lam_i = enc.lam[i]
        for j in range(alpha):
            row = g.data[i * alpha + j]
            for t in range(alpha):
                ta = sym_index(alpha, t, j)
                row[ta] = add(row[ta], phi_row[t])
                tb = half + ta
                row[tb] = add(row[tb], mul(lam_i, phi_row[t]))
    return g


# ---------------------------------------------------------------------------
# identity-block decoding
# ---------------------------------------------------------------------------

def decode_identity_block(
    params: CodeParams, c_k: Matrix, lam_k: Sequence[int], r: Sequence[int]
) -> MessageMatrix:
    """Invert the first-k-nodes map when Psi_k = [I  Lambda_a; r^T  lambda*r^T].

    The first alpha nodes store C1 = S_a + Lambda_a * S_b and the k-th stores
    C2 = r^T S_a + lambda r^T S_b.  Off-diagonal entries come from 2x2 solves
    on C1 (using symmetry), the products S_a r and S_b r from C1 r and C2, and
    the diagonals by peeling the known off-diagonal terms out of those
    products.
    """
    field = params.field
    alpha, k = params.alpha, params.k
    if (c_k.rows, c_k.cols) != (k, alpha):
        raise DimensionMismatch(f"C_k is {c_k.rows}x{c_k.cols}, expected {k}x{alpha}")
    if len(lam_k) != k:
        raise LengthMismatch(f"lambda has {len(lam_k)} entries, expected {k}")
    if len(r) != alpha:
        raise LengthMismatch(f"r has {len(r)} entries, expected {alpha}")
    if len(set(lam_k)) != k:
        raise DesignMismatch("lambda entries of the first k nodes must be distinct")
    if any(x == 0 for x in r):
        raise DesignMismatch("r must have no zero entries")

    sub, mul, div = field.sub, field.mul, field.div
    lam_last = lam_k[alpha]
    c1 = c_k.data[:alpha]
    c2 = c_k.data[alpha]

    sa = [[0] * alpha for _ in range(alpha)]
    sb = [[0] * alpha for _ in range(alpha)]
    for i in range(alpha):
        for j in range(i + 1, alpha):
            vb = div(sub(c1[i][j], c1[j][i]), sub(lam_k[i], lam_k[j]))
            va = sub(c1[i][j], mul(lam_k[i], vb))
            sa[i][j] = sa[j][i] = va
            sb[i][j] = sb[j][i] = vb

    # u = S_a r and v = S_b r, from c1 = u + Lambda_a v and c2 = u + lambda v
    for i in range(alpha):
        c1_i = 0
        for j in range(alpha):
            c1_i = field.add(c1_i, mul(c1[i][j], r[j]))
        c2_i = c2[i]
        v_i = div(sub(c1_i, c2_i), sub(lam_k[i], lam_last))
        u_i = sub(c1_i, mul(lam_k[i], v_i))
        known_a = 0
        known_b = 0
        for j in range(alpha):
            if j != i:
                known_a = field.add(known_a, mul(sa[i][j], r[j]))
                known_b = field.add(known_b, mul(sb[i][j], r[j]))
        sa[i][i] = div(sub(u_i, known_a), r[i])
        sb[i][i] = div(sub(v_i, known_b), r[i])
    return MessageMatrix(Matrix(field, sa), Matrix(field, sb))


def has_identity_block(enc: EncodingMatrix) -> bool:
    """True when the first k rows of Psi have the [I Lambda; r lambda*r] shape."""
    alpha = enc.params.alpha
    for i in range(alpha):
        for j in range(alpha):
            if enc.phi.data[i][j] != (1 if i == j else 0):
                return False
    return all(x != 0 for x in enc.phi.data[alpha])


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RepairBundle:
    """Everything transferred during one exact repair: d scalars, one per helper."""

    failed: int
    helpers: tuple
    repair_vector: tuple   # what each helper dots its alpha stored symbols with
    symbols: tuple         # the d transferred scalars, aligned with helpers
    rebuilt: tuple         # the alpha recovered symbols of the failed node


@dataclass(frozen=True)
class RepairPlan:
    """One way to rebuild a node: read ``rows`` of each of ``nodes``, stacked in order, and run ``program``.

    Its (len(nodes)*len(rows) x S) inputs hold each node's rows in ``rows`` order, node by node,
    and its outputs are the failed node's (alpha x S) rows.  ``rebuild`` tells which plan: False
    for ``helper_plan`` over d helpers, True for ``rebuild_plan`` over k nodes.
    """

    rebuild: bool
    nodes: tuple
    rows: tuple
    program: Program | Matrix

    @property
    def symbols(self) -> int:
        """Symbols read per stripe."""
        return len(self.nodes) * len(self.rows)


def _cheaper_program(program: Program) -> Program | Matrix:
    """``program``, or the matrix it computes if that costs the kernel no more."""
    flat = program @ Matrix.identity(program.field, program.inputs)
    return flat if kernel_cost(flat) <= kernel_cost(program) else program


class LinearCode:
    """A code presented by its (n*alpha) x B generator, plus repair structure.

    Subclasses fix how repair vectors and repair matrices are derived; the
    shared machinery here covers encoding, generic decoding from any k nodes,
    and the bookkeeping checks.
    """

    def __init__(self, params: CodeParams, generator: Matrix, label: str = ""):
        if generator.rows != params.n * params.alpha or generator.cols != params.B:
            raise DimensionMismatch(
                f"generator is {generator.rows}x{generator.cols}, "
                f"expected {params.n * params.alpha}x{params.B}"
            )
        self.params = params
        self.generator = generator
        self.label = label or f"code {params}"
        self._programs: dict = {}  # node list -> decode_program; (failed, helpers), ("rebuild", failed, ids) -> plan

    # -- encoding ----------------------------------------------------------

    def node_block(self, i: int) -> Matrix:
        n, alpha = self.params.n, self.params.alpha
        if not 0 <= i < n:
            raise IndexOutOfRange(f"node {i} of {n}")
        return self.generator.take_rows(range(i * alpha, (i + 1) * alpha))

    def encode_message(self, m: Sequence[int]) -> list[int]:
        if len(m) != self.params.B:
            raise LengthMismatch(f"message has {len(m)} symbols, expected {self.params.B}")
        return self.generator.mul_vector(list(m))

    def stored_rows(self, m: Sequence[int]) -> list[list[int]]:
        """Per-node stored symbols for one stripe: n rows of alpha."""
        flat = self.encode_message(m)
        alpha = self.params.alpha
        return [flat[i * alpha : (i + 1) * alpha] for i in range(self.params.n)]

    # -- repair ------------------------------------------------------------

    def repair_vector(self, failed: int) -> list[int]:
        """The alpha-vector each helper dots with its stored row to get its transfer symbol."""
        raise NotImplementedError

    def repair_matrix(self, failed: int, helpers: Sequence[int]) -> Matrix:
        """alpha x d matrix turning the d transferred symbols into the lost row."""
        raise NotImplementedError

    def check_repair_args(self, failed: int, helpers: Sequence[int]):
        """Raise unless ``failed`` is in range and ``helpers`` names d other distinct nodes."""
        n, d = self.params.n, self.params.d
        if not 0 <= failed < n:
            raise IndexOutOfRange(f"node {failed} of {n}")
        if len(helpers) != d or len(set(helpers)) != len(helpers):
            raise BadHelperCount(f"need d={d} distinct helpers, got {list(helpers)}")
        for h in helpers:
            if not 0 <= h < n:
                raise IndexOutOfRange(f"helper {h} of {n}")
            if h == failed:
                raise BadHelperCount(f"failed node {failed} cannot help itself")

    def helper_symbol(self, stored_row: Sequence[int], failed: int) -> int:
        """What one helper sends: its stored row dotted with the repair vector."""
        vec = self.repair_vector(failed)
        if len(stored_row) != len(vec):
            raise LengthMismatch(f"stored row has {len(stored_row)} symbols, expected {len(vec)}")
        return Matrix(self.params.field, [vec]).mul_vector(list(stored_row))[0]

    def repair(self, failed: int, helpers: Sequence[int], symbols: Sequence[int]) -> list[int]:
        """Rebuild the failed node's alpha symbols from d transferred scalars."""
        self.check_repair_args(failed, helpers)
        if len(symbols) != self.params.d:
            raise BadHelperCount(
                f"need exactly d={self.params.d} symbols, got {len(symbols)}"
            )
        return self.repair_matrix(failed, helpers).mul_vector(list(symbols))

    def run_repair(self, stored: Sequence[Sequence[int]], failed: int, helpers: Sequence[int]) -> RepairBundle:
        """Simulate a full repair against the stored rows of all nodes."""
        self.check_repair_args(failed, helpers)
        symbols = [self.helper_symbol(stored[h], failed) for h in helpers]
        rebuilt = self.repair(failed, helpers, symbols)
        return RepairBundle(
            failed=failed,
            helpers=tuple(helpers),
            repair_vector=tuple(self.repair_vector(failed)),
            symbols=tuple(symbols),
            rebuilt=tuple(rebuilt),
        )

    # -- decoding ----------------------------------------------------------

    def check_decode_args(self, ids: Sequence[int]):
        """Raise unless ``ids`` names k distinct nodes, each in range."""
        n, k = self.params.n, self.params.k
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if len(ids) != k or repeated:
            detail = f" (repeated: {repeated})" if repeated else ""
            raise BadCount(f"need k={k} distinct nodes, got {list(ids)}{detail}")
        for i in ids:
            if not 0 <= i < n:
                raise IndexOutOfRange(f"node {i} of {n}")

    def decode(self, ids: Sequence[int], rows: Sequence[Sequence[int]]) -> list[int]:
        """Recover the packed message from the stored rows of any k nodes."""
        self.check_decode_args(ids)
        if len(rows) != len(ids):
            raise BadCount(f"{len(rows)} rows for {len(ids)} nodes")
        alpha = self.params.alpha
        for r in rows:
            if len(r) != alpha:
                raise LengthMismatch(f"stored row has {len(r)} symbols, expected {alpha}")
        column = Matrix(self.params.field, [[x] for r in rows for x in r])
        return [row[0] for row in (self.decode_program(ids) @ column).data]

    def decode_program(self, ids: Sequence[int]) -> Program | Matrix:
        """What a decode applies to the stacked rows of ``ids``, computed once per node list.

        The elimination program of the stacked node blocks
        (``linalg.elimination_program``), or the dense inverse it computes
        when that costs the kernel no more (``linalg.kernel_cost``), as it
        can for a dense block.  Either way it is exact, and no inverse is
        taken.
        """
        key = tuple(ids)
        if key not in self._programs:
            self.check_decode_args(ids)
            block = Matrix.vstack([self.node_block(i) for i in ids])
            try:
                self._programs[key] = _cheaper_program(elimination_program(block))
            except Singular as exc:
                raise Singular(f"nodes {list(ids)} do not determine the message") from exc
        return self._programs[key]

    def helper_plan(self, failed: int, helpers: Sequence[int]) -> RepairPlan:
        """The plan that repairs ``failed`` from d ``helpers``, computed once per helper list.

        Its rows S are the positions where ``repair_vector(failed)`` is
        nonzero: the only stored rows a helper's symbol depends on, and so
        the only ones a helper reads.  The program reads the d*|S| selected
        rows in helper order.  It is ``linalg.compose`` of the d x d*|S|
        transfer matrix, whose row h dots helper h's rows with the repair
        vector to give the symbol it sends, and ``repair_matrix``, which
        takes the failed node's alpha rows from those d.  As for decode, the
        matrix it computes replaces it when that costs no more; for a unit
        repair vector (repair by transfer) that is the rebuild matrix.
        """
        key = (failed, tuple(helpers))
        if key not in self._programs:
            self.check_repair_args(failed, helpers)
            d = self.params.d
            vec = self.repair_vector(failed)
            rows = tuple(j for j, c in enumerate(vec) if c)
            transfer = Matrix.zeros(self.params.field, d, d * len(rows))
            for h, line in enumerate(transfer.data):
                line[h * len(rows) : (h + 1) * len(rows)] = [vec[j] for j in rows]
            program = compose(transfer, self.repair_matrix(failed, helpers))
            self._programs[key] = RepairPlan(False, tuple(helpers), rows, _cheaper_program(program))
        return self._programs[key]

    def rebuild_plan(self, failed: int, ids: Sequence[int]) -> RepairPlan:
        """The plan that rebuilds ``failed`` from all stored rows of the k nodes ``ids``, computed once.

        The program reads the k*alpha rows of ``ids`` in order: it is
        ``linalg.compose`` of ``decode_program(ids)`` and the failed node's
        alpha generator rows.  As for decode, the matrix it computes
        replaces it when that costs no more: from nodes 0..k-1 the decode is
        copies, and what remains is the node's generator rows.
        """
        key = ("rebuild", failed, tuple(ids))
        if key not in self._programs:
            p = self.params
            if not 0 <= failed < p.n:
                raise IndexOutOfRange(f"node {failed} of {p.n}")
            if failed in ids:
                raise BadCount(f"failed node {failed} cannot help rebuild itself")
            program = compose(self.decode_program(ids), self.node_block(failed))
            self._programs[key] = RepairPlan(True, tuple(ids), tuple(range(p.alpha)), _cheaper_program(program))
        return self._programs[key]

    def repair_plan(self, failed: int, present: Sequence[int]) -> RepairPlan:
        """The cheaper way to rebuild ``failed`` from the nodes ``present``, taken in order.

        d helpers (``helper_plan`` over the first d other nodes) read
        d*|S| symbols per stripe, and k nodes (``rebuild_plan`` over the
        first k) read k*alpha.  The plan that reads fewer wins, a tie going
        to the lower ``kernel_cost`` and then to the helpers; a plan is
        built only when it can win.  With fewer than d other nodes only the
        rebuild is possible, and with fewer than k, BadCount.
        """
        p = self.params
        helper_reads = p.d * sum(1 for c in self.repair_vector(failed) if c)  # checks failed
        others = [i for i in present if i != failed]
        if len(others) < p.k:
            raise BadCount(f"need at least k={p.k} other nodes, got {others}")
        plans = []
        if len(others) >= p.d and helper_reads <= p.B:
            plans.append(self.helper_plan(failed, others[: p.d]))
        if not plans or helper_reads >= p.B:
            plans.append(self.rebuild_plan(failed, others[: p.k]))
        return min(plans, key=lambda plan: (plan.symbols, kernel_cost(plan.program)))


class PmVandermondeCode(LinearCode):
    """The direct product-matrix code for d = 2k-2, any encoding matrix."""

    def __init__(self, enc: EncodingMatrix, label: str = ""):
        params = enc.params
        super().__init__(params, generator_matrix(enc), label or f"vanilla {params}")
        self.enc = enc

    def repair_vector(self, failed: int) -> list[int]:
        if not 0 <= failed < self.params.n:
            raise IndexOutOfRange(f"node {failed} of {self.params.n}")
        return self.enc.phi.row(failed)

    def repair_matrix(self, failed: int, helpers: Sequence[int]) -> Matrix:
        self.check_repair_args(failed, helpers)
        params = self.params
        alpha = params.alpha
        add, mul = params.field.add, params.field.mul
        inv = self.enc.psi.take_rows(helpers).inverse()
        lam_f = self.enc.lam[failed]
        # row j of the result: (S_a phi_f)[j] + lam_f (S_b phi_f)[j] pulled out of inv * s
        data = [
            [add(inv.data[j][c], mul(lam_f, inv.data[alpha + j][c])) for c in range(params.d)]
            for j in range(alpha)
        ]
        return Matrix(params.field, data)

    def decode(self, ids, rows, method: str = "auto") -> list[int]:
        """Decode from k nodes; ``method`` picks the generic path or the
        closed-form one available when the first k rows of Psi form the
        identity-block design (ids must then be 0..k-1)."""
        if method not in ("auto", "generic", "identity"):
            raise ValueError(f"unknown decode method {method!r}")
        applicable = (
            tuple(ids) == tuple(range(self.params.k)) and has_identity_block(self.enc)
        )
        if method == "identity" and not applicable:
            raise DesignMismatch("identity-block decode needs nodes 0..k-1 of an identity-block design")
        if method == "generic" or not applicable:
            return super().decode(ids, rows)
        self.check_decode_args(ids)
        alpha = self.params.alpha
        c_k = Matrix(self.params.field, [list(r) for r in rows])
        lam_k = list(self.enc.lam[: self.params.k])
        r = self.enc.phi.row(alpha)
        return unpack_message(self.params, decode_identity_block(self.params, c_k, lam_k, r))
