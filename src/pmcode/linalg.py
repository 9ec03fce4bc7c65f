"""Exact matrices over the finite fields in :mod:`pmcode.field`.

A :class:`Matrix` stores its entries row-major as plain ints.  All operations
are exact; the arithmetic kernels are specialized per field family so the hot
loops stay in simple int operations (mod-p or log/antilog lookups).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    DuplicateEvaluationPoint,
    FieldMismatch,
    IndexOutOfRange,
    Singular,
)
from .field import field_of_order


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data: Sequence[Sequence[int]]):
        rows = len(data)
        if rows == 0:
            raise DimensionMismatch("matrix must have at least one row")
        cols = len(data[0])
        if cols == 0:
            raise DimensionMismatch("matrix must have at least one column")
        for r in data:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = [list(r) for r in data]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        return cls(field, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def vstack(cls, blocks: Sequence["Matrix"]) -> "Matrix":
        if not blocks:
            raise DimensionMismatch("nothing to stack")
        f = blocks[0].field
        c = blocks[0].cols
        rows = []
        for b in blocks:
            if b.field != f:
                raise FieldMismatch("stacked blocks live in different fields")
            if b.cols != c:
                raise DimensionMismatch("stacked blocks have different widths")
            rows.extend(b.data)
        return cls(f, rows)

    @classmethod
    def from_columns(cls, field, columns: Sequence[Sequence[int]]) -> "Matrix":
        rows = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(rows)])

    # -- accessors ----------------------------------------------------------

    def row(self, i: int) -> list[int]:
        if not 0 <= i < self.rows:
            raise IndexOutOfRange(f"row {i} of {self.rows}")
        return list(self.data[i])

    def column_vector(self, j: int) -> list[int]:
        if not 0 <= j < self.cols:
            raise IndexOutOfRange(f"column {j} of {self.cols}")
        return [r[j] for r in self.data]

    def submatrix(self, row_ids: Iterable[int], col_ids: Iterable[int]) -> "Matrix":
        row_ids = list(row_ids)
        col_ids = list(col_ids)
        for i in row_ids:
            if not 0 <= i < self.rows:
                raise IndexOutOfRange(f"row {i} of {self.rows}")
        for j in col_ids:
            if not 0 <= j < self.cols:
                raise IndexOutOfRange(f"column {j} of {self.cols}")
        return Matrix(self.field, [[self.data[i][j] for j in col_ids] for i in row_ids])

    def take_rows(self, row_ids: Iterable[int]) -> "Matrix":
        return self.submatrix(row_ids, range(self.cols))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.data)])

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("cannot multiply matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        if self.field.kind == "prime":
            out = _matmul_prime(self.data, other.data, self.field.q)
        else:
            out = _matmul_gf256(self.data, other.data, self.field)
        return Matrix(self.field, out)

    def mul_vector(self, vec: Sequence[int]) -> list[int]:
        """Matrix-vector product, returned as a plain list."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times vector of {len(vec)}")
        if self.field.kind == "prime":
            q = self.field.q
            return [sum(x * y for x, y in zip(row, vec)) % q for row in self.data]
        exp, log = self.field.exp, self.field.log
        out = []
        for row in self.data:
            acc = 0
            for x, y in zip(row, vec):
                if x and y:
                    acc ^= exp[(log[x] + log[y]) % 255]
            out.append(acc)
        return out

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        aug = [list(row) + [0] * n for row in self.data]
        for i in range(n):
            aug[i][n + i] = 1
        pivots = _eliminate(aug, self.field, reduce=True, limit_cols=n)
        if pivots < n:
            raise Singular("matrix is singular")
        return Matrix(self.field, [row[n:] for row in aug])

    def rank(self) -> int:
        work = [list(row) for row in self.data]
        return _eliminate(work, self.field, reduce=False)

    def nonzeros_per_row(self) -> list[int]:
        return [sum(1 for x in row if x) for row in self.data]

    # -- text serialization --------------------------------------------------

    def to_text(self) -> str:
        head = f"{self.rows} {self.cols} {self.field.order}"
        body = "\n".join(" ".join(str(x) for x in row) for row in self.data)
        return head + "\n" + body + "\n"


def matrix_from_text(text: str, field=None) -> Matrix:
    """Parse the text matrix format: header ``rows cols q`` then one line per row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"bad matrix header: {lines[0]!r}")
    rows, cols, q = (int(x) for x in head)
    if field is None:
        field = field_of_order(q)
    elif field.order != q:
        raise FieldMismatch(f"header says order {q}, expected {field.order}")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, found {len(lines) - 1}")
    data = []
    for ln in lines[1:]:
        row = [int(x) for x in ln.split()]
        if len(row) != cols:
            raise ValueError(f"expected {cols} columns, found {len(row)}")
        for x in row:
            if not 0 <= x < q:
                raise ValueError(f"entry {x} out of range for field of order {q}")
        data.append(row)
    return Matrix(field, data)


def vandermonde(field, xs: Sequence[int], cols: int) -> Matrix:
    """len(xs) x cols matrix with entry (i, j) = xs[i]^(j+1).

    The first column holds the points themselves (powers start at 1, not 0).
    """
    seen = set()
    for x in xs:
        if x in seen:
            raise DuplicateEvaluationPoint(f"evaluation point {x} repeats")
        seen.add(x)
    mul = field.mul
    data = []
    for x in xs:
        acc = x
        row = [acc]
        for _ in range(cols - 1):
            acc = mul(acc, x)
            row.append(acc)
        data.append(row)
    return Matrix(field, data)


# ---------------------------------------------------------------------------
# elimination kernels
# ---------------------------------------------------------------------------

def _matmul_prime(a, b, q):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % q for col in bt] for row in a]


def _matmul_gf256(a, b, field):
    # out row = XOR over x = a[i][j] != 0 of b's row j scaled by x; a scaled
    # row is one bytes.translate, and the XOR runs on the rows read as ints
    tables = field.product_tables
    width = len(b[0])
    brows = [bytes(row) for row in b]
    out = []
    for row in a:
        acc = 0
        for x, brow in zip(row, brows):
            if x:
                acc ^= int.from_bytes(brow if x == 1 else brow.translate(tables[x]), "big")
        out.append(list(acc.to_bytes(width, "big")))
    return out


def _eliminate(rows, field, reduce: bool, limit_cols: int | None = None) -> int:
    """In-place row echelon elimination; returns the number of pivots.

    With ``reduce`` the result is fully reduced (unit pivots, zeros above),
    which is what the inverse routine needs.
    """
    if limit_cols is None:
        limit_cols = len(rows[0])
    if field.kind == "prime":
        return _eliminate_prime(rows, field.q, reduce, limit_cols)
    return _eliminate_gf256(rows, field, reduce, limit_cols)


def _eliminate_prime(rows, q, reduce, limit_cols):
    nrows = len(rows)
    rank = 0
    for col in range(limit_cols):
        if rank == nrows:
            break
        piv = None
        for i in range(rank, nrows):
            if rows[i][col] % q:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pinv = pow(prow[col], q - 2, q)
        if pinv != 1:
            prow[:] = [(x * pinv) % q for x in prow]
        span = range(nrows) if reduce else range(rank + 1, nrows)
        for i in span:
            if i == rank:
                continue
            f = rows[i][col] % q
            if f:
                ri = rows[i]
                ri[:] = [(x - f * y) % q for x, y in zip(ri, prow)]
        rank += 1
    return rank


def _eliminate_gf256(rows, field, reduce, limit_cols):
    # rows are worked on as bytes, as in _matmul_gf256: scaling a row is one
    # bytes.translate, and a row update an XOR of two rows read as ints
    tables = field.product_tables
    width = len(rows[0])
    work = [bytes(r) for r in rows]
    nrows = len(work)
    rank = 0
    for col in range(limit_cols):
        if rank == nrows:
            break
        piv = None
        for i in range(rank, nrows):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        if prow[col] != 1:
            prow = work[rank] = prow.translate(tables[field.inv(prow[col])])
        span = range(nrows) if reduce else range(rank + 1, nrows)
        for i in span:
            if i == rank:
                continue
            f = work[i][col]
            if f:
                acc = int.from_bytes(work[i], "big") ^ int.from_bytes(prow.translate(tables[f]), "big")
                work[i] = acc.to_bytes(width, "big")
        rank += 1
    rows[:] = [list(r) for r in work]
    return rank
