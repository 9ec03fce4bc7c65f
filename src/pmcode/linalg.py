"""Exact matrices over the finite fields in :mod:`pmcode.field`.

A :class:`Matrix` stores its entries row-major as plain ints.  All operations
are exact.  Both products, ``Matrix @`` and ``Program @``, run one row
routine per field family, which skips zero coefficients: ``_rows_prime``
sums int lists and reduces each row once, and ``_rows_gf256`` scales bytes
rows with ``bytes.translate`` through the field's product table and sums
them by int XOR.  ``mul_vector`` is ``@`` on one column.  Elimination
(``inverse``, ``rank``) is one Gauss-Jordan pivot loop over each family's
row form and row operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

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

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    # a matrix is the Program whose rows are its outputs and read only inputs
    @property
    def inputs(self) -> int:
        return self.cols

    @property
    def outputs(self) -> range:
        return range(self.rows)

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch("cannot multiply matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        return _run(self, other)

    def mul_vector(self, vec: Sequence[int]) -> list[int]:
        """Matrix-vector product, returned as a plain list: ``@`` on one column."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times vector of {len(vec)}")
        return _run(self, Matrix(self.field, [[x] for x in vec])).column_vector(0)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        aug = [list(row) + [0] * n for row in self.data]
        for i in range(n):
            aug[i][n + i] = 1
        pivots, rows = _eliminate(aug, self.field, n, reduce=True)
        if pivots < n:
            raise Singular("matrix is singular")
        return Matrix(self.field, [row[n:] for row in rows])

    def rank(self) -> int:
        return _eliminate(self.data, self.field, self.cols, reduce=False)[0]

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
# straight-line programs
# ---------------------------------------------------------------------------

class Program:
    """A straight-line linear program over ``inputs`` input rows.

    Row t of ``data`` is a linear combination: its column j < ``inputs``
    reads input row j, and its column ``inputs`` + s reads the program's
    own row s, for s < t only.  ``outputs`` names the row that holds each
    output, in order.  A :class:`Matrix` is the program whose rows are its
    outputs and read only inputs.
    """

    __slots__ = ("field", "rows", "cols", "data", "inputs", "outputs")

    def __init__(self, field, data: Sequence[Sequence[int]], inputs: int, outputs: Sequence[int]):
        self.field = field
        self.data = [list(r) for r in data]
        self.rows = len(self.data)
        self.cols = inputs + self.rows
        self.inputs = inputs
        self.outputs = tuple(outputs)
        if not self.rows or any(len(r) != self.cols for r in self.data):
            raise DimensionMismatch(f"each row of a program over {inputs} inputs has {self.cols} columns")
        if any(any(row[inputs + t :]) for t, row in enumerate(self.data)):
            raise DimensionMismatch("a program row reads a row not yet computed")
        if len(set(self.outputs)) != len(self.outputs) or not set(self.outputs) <= set(range(self.rows)):
            raise DimensionMismatch(f"outputs {self.outputs} must be distinct rows")

    def __repr__(self) -> str:
        return f"Program({self.field!r}, {self.inputs} in, {self.rows} rows, {len(self.outputs)} out)"

    def __matmul__(self, other: Matrix) -> Matrix:
        """The program run on the rows of ``other``: its outputs, one row each."""
        if self.field != other.field:
            raise FieldMismatch("program and matrix live in different fields")
        if other.rows != self.inputs:
            raise DimensionMismatch(f"program reads {self.inputs} rows, got {other.rows}")
        return _run(self, other)


def compose(first: Matrix | Program, then: Matrix) -> Program:
    """The program that runs ``first`` and then ``then`` over ``first``'s outputs.

    Its rows are ``first``'s, then one per row of ``then``, which are its
    outputs, so ``compose(first, then) @ x == then @ (first @ x)``.
    """
    if then.field != first.field:
        raise FieldMismatch("composed program and matrix live in different fields")
    if then.cols != len(first.outputs):
        raise DimensionMismatch(f"matrix reads {then.cols} rows, program has {len(first.outputs)} outputs")
    width = first.inputs + first.rows + then.rows
    data = [row + [0] * (width - len(row)) for row in first.data]
    for coeffs in then.data:
        row = [0] * width
        for o, c in zip(first.outputs, coeffs):
            row[first.inputs + o] = c
        data.append(row)
    return Program(first.field, data, first.inputs, range(first.rows, first.rows + then.rows))


@lru_cache(maxsize=4)
def _bitmatrix_ones(field) -> tuple:
    """The 1s in each coefficient's 8x8 GF(2) matrix: the popcounts of c*x^b, b < 8."""
    return tuple(sum(table[1 << b].bit_count() for b in range(8)) for table in field.product_tables)


def kernel_cost(mat: Matrix | Program) -> int:
    """What the bulk kernel spends on one stripe (prime fields) or block (GF(2^8)) of ``mat``.

    A row whose one nonzero is a 1 is a copy and costs nothing.  Any other
    nonzero costs one multiply-add term over a prime field, and over GF(2^8)
    the 1s of its bitmatrix, one packet XOR each.
    """
    ones = _bitmatrix_ones(mat.field) if mat.field.kind == "binary8" else None
    cost = 0
    for row in mat.data:
        nonzero = [c for c in row if c]
        if nonzero != [1]:
            cost += len(nonzero) if ones is None else sum(ones[c] for c in nonzero)
    return cost


def elimination_program(a: Matrix) -> Program:
    """x = a^-1 y as a straight-line program over y: the elimination form of the inverse.

    Markowitz (Management Science, 1957): each pivot is the nonzero of the
    rows and columns not yet eliminated with the least (r-1)(c-1), r and c
    its row's and column's nonzeros, ties going to a pivot of 1, then to the
    lowest row and column.  Taking f times pivot row p from row i makes i's
    right-hand side z_i = y_i - sum f z_p (a forward row; y_i itself when no
    pivot touched row i), and back substitution in reverse pivot order gives
    x_c = (z_p - sum u x_c') / pivot for pivot row p's column c.  The
    program's rows are the forward rows, then the back-substitution rows;
    an x that equals its forward row is that row, and one that equals an
    input is a unit row that nothing reads.  Raises Singular when ``a`` has
    no inverse.
    """
    if a.rows != a.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    field, n = a.field, a.rows
    sub, mul, div = field.sub, field.mul, field.div
    rows = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(a.data)}
    cols = [set() for _ in range(n)]
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    lower = [[] for _ in range(n)]  # row i: (pivot step, factor) taken from it
    pivots = []  # (row, column, pivot row)
    for step in range(n):
        best, least = None, n * n  # least is best's cost, to build few tuples
        counts = [len(c) - 1 for c in cols]
        for i, row in rows.items():  # in ascending row order
            rc = len(row) - 1
            for j, v in row.items():
                cost = rc * counts[j]
                if cost <= least and (best is None or (cost, v != 1, i, j) < best):
                    best, least = (cost, v != 1, i, j), cost
            if best is not None and best[:2] == (0, False):
                break  # no later row beats it
        if best is None:
            raise Singular("matrix is singular")
        pi, pj = best[2], best[3]
        prow = rows.pop(pi)
        for j in prow:
            cols[j].discard(pi)
        pivot = prow[pj]
        for i in list(cols[pj]):
            row = rows[i]
            f = div(row[pj], pivot)
            for j, v in prow.items():
                value = sub(row.get(j, 0), mul(f, v))
                if value:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = value
                else:
                    row.pop(j, None)
                    cols[j].discard(i)
            lower[i].append((step, f))
        pivots.append((pi, pj, prow))

    program = []  # its rows, each a {column read: coefficient} dict
    z = [0] * n  # step -> the column holding its right-hand side
    for step, (i, _, _) in enumerate(pivots):
        if lower[i]:
            row = {i: 1}
            for s, f in lower[i]:
                row[z[s]] = sub(0, f)
            z[step] = n + len(program)
            program.append(row)
        else:
            z[step] = i
    x = [0] * n  # column -> the column that later rows read it from
    outputs = [0] * n
    for step in reversed(range(n)):
        _, pj, prow = pivots[step]
        scale = field.inv(prow[pj])
        row = {z[step]: scale}
        for j, v in prow.items():
            if j != pj:
                row[x[j]] = sub(0, mul(scale, v))
        copy = row == {z[step]: 1}
        if copy and z[step] >= n:  # x is its forward row
            x[pj] = z[step]
            outputs[pj] = z[step] - n
        else:
            program.append(row)
            outputs[pj] = len(program) - 1
            x[pj] = z[step] if copy else n + outputs[pj]
    width = n + len(program)
    dense = []
    for row in program:
        line = [0] * width
        for j, v in row.items():
            line[j] = v
        dense.append(line)
    return Program(field, dense, n, outputs)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _run(program: Matrix | Program, other: Matrix) -> Matrix:
    """``program``'s outputs over the rows of ``other``; a Matrix is a program
    whose rows read only inputs, and ``zip`` stops each row at its width."""
    field = other.field
    if field.kind == "prime":
        pool = _rows_prime(program.data, other.data, field.q)
    else:
        pool = _rows_gf256(program.data, other.data, field.product_tables)
    return Matrix(field, [pool[program.inputs + r] for r in program.outputs])


def _rows_prime(coeffs, rows, q) -> list:
    """``rows`` followed by each coefficient row's combination of the rows
    before it: int lists summed over the nonzero terms and reduced once."""
    pool = list(rows)
    for row in coeffs:
        acc = [0] * len(rows[0])
        for c, x in zip(row, pool):
            if c:
                acc = [a + c * b for a, b in zip(acc, x)]
        pool.append([a % q for a in acc])
    return pool


def _rows_gf256(coeffs, rows, tables) -> list:
    """As ``_rows_prime`` over GF(2^8): rows as bytes, a term scaled by one
    ``bytes.translate`` and the terms summed by XOR of the rows read as ints."""
    width = len(rows[0])
    pool = [bytes(r) for r in rows]
    for row in coeffs:
        acc = 0
        for c, x in zip(row, pool):
            if c:
                acc ^= int.from_bytes(x if c == 1 else x.translate(tables[c]), "big")
        pool.append(acc.to_bytes(width, "big"))
    return pool


def _eliminate(rows, field, cols: int, reduce: bool) -> tuple[int, list]:
    """Gauss-Jordan elimination of a copy of ``rows`` over their first ``cols``
    columns; returns the number of pivots and the rows in working form.

    Each pivot is scaled to 1 and cleared below, and with ``reduce`` above
    too.  ``_row_ops`` gives the field's row form and row operations.
    """
    form, scale, clear = _row_ops(field)
    work = [form(r) for r in rows]
    nrows, rank = len(work), 0
    for col in range(cols):
        for piv in range(rank, nrows):
            if work[piv][col]:
                break
        else:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        c = field.inv(work[rank][col])
        if c != 1:
            work[rank] = scale(work[rank], c)
        # below the pivot, rows before piv are zero in col
        clear(work, rank, col, range(nrows) if reduce else range(piv + 1, nrows))
        rank += 1
    return rank, work


def _row_ops(field) -> tuple:
    """A row's working form, ``scale(row, c)`` and ``clear(work, rank, col, span)``,
    which takes from each other row in ``span`` its entry in ``col`` times the
    pivot row ``work[rank]``; one call per pivot.  A prime-field row is an int
    list reduced mod q, and a GF(2^8) row bytes, as in ``_rows_gf256``.
    """
    if field.kind == "prime":
        q = field.q

        def clear(work, rank, col, span):
            prow = work[rank]
            for i in span:
                f = work[i][col]
                if f and i != rank:
                    work[i] = [(x - f * y) % q for x, y in zip(work[i], prow)]

        return (lambda row: [x % q for x in row]), (lambda row, c: [x * c % q for x in row]), clear
    tables = field.product_tables

    def clear(work, rank, col, span):
        prow = work[rank]
        for i in span:
            f = work[i][col]
            if f and i != rank:
                acc = int.from_bytes(work[i], "big") ^ int.from_bytes(prow.translate(tables[f]), "big")
                work[i] = acc.to_bytes(len(prow), "big")

    return bytes, (lambda row, c: row.translate(tables[c])), clear
