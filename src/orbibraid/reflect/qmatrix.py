"""Matrices over the rational-function field Q(q), exact throughout.

``entries`` is a tuple of row tuples, every zero included.  Each matrix
also lists its nonzero entries, row by row as (column, entry) pairs; the
list is built on first use and kept, outside equality, hashing and repr.
A product is row-wise over these lists on both sides (Gustavson, "Two
fast algorithms for sparse matrices", ACM TOMS 1978): each nonzero a_ik
of the left factor is multiplied into the nonzeros of row k of the right
one.  The generators of a cylinder representation have one or two
nonzeros a row, and most of them are +-q^k, which ``LaurentScalar``
multiplies by a shift.  Structural matrices cost no scalar arithmetic at
all: ``placed`` writes I (x) A (x) I by index, and ``permuted``
conjugates by a permutation of tensor legs (Van Loan, "The ubiquitous
Kronecker product", 2000) by reindexing entries.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DimensionError, SingularMatrixError
from ..record import Record, set_slot
from .laurent import ONE, ZERO, LaurentScalar, parse_scalar

Row = tuple[LaurentScalar, ...]
Terms = tuple[tuple[int, LaurentScalar], ...]


def leg_swap(left: int, d: int) -> tuple[int, ...]:
    """Index map of I_left (x) flip(d, d): (x, b, c) -> (x, c, b).  It is its own inverse."""
    dd = d * d
    return tuple(x * dd + c * d + b for x in range(left) for b in range(d) for c in range(d))


def _shape(m, rows: int, cols: int, entries: tuple[Row, ...]):
    """Write m's slots after checking its shape, all but the row lengths."""
    if rows < 1 or cols < 1:
        raise DimensionError("matrix dimensions must be positive")
    if len(entries) != rows:
        raise DimensionError("entry grid does not match the declared shape")
    set_slot(m, "rows", rows)
    set_slot(m, "cols", cols)
    set_slot(m, "entries", entries)
    set_slot(m, "_nonzero", None)
    return m


class QMatrix(Record):
    __slots__ = ("rows", "cols", "entries", "_nonzero")  # _nonzero: the nonzero rows once listed, else None
    __match_args__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Row, ...]):
        _shape(self, rows, cols, entries)
        if any(len(r) != cols for r in entries):
            raise DimensionError("entry grid does not match the declared shape")

    @staticmethod
    def _built(rows: int, cols: int, entries: tuple[Row, ...]) -> QMatrix:
        """A matrix whose rows were built here with cols entries each: their lengths are not checked again."""
        return _shape(object.__new__(QMatrix), rows, cols, entries)

    @staticmethod
    def from_rows(rows) -> QMatrix:
        entries = tuple(tuple(row) for row in rows)
        return QMatrix(len(entries), len(entries[0]) if entries else 0, entries)

    @staticmethod
    def from_strings(rows) -> QMatrix:
        return QMatrix.from_rows([[parse_scalar(s) for s in row] for row in rows])

    @staticmethod
    def identity(n: int) -> QMatrix:
        return QMatrix._built(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    def __mul__(self, other: QMatrix) -> QMatrix:
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other._nonzero_rows()
        out = []
        for terms in self._nonzero_rows():
            row = [ZERO] * other.cols
            for k, a in terms:
                for j, b in right[k]:
                    row[j] = row[j] + a * b
            out.append(tuple(row))
        return QMatrix._built(self.rows, other.cols, tuple(out))

    def _nonzero_rows(self) -> tuple[Terms, ...]:
        """Each row's nonzero entries as (column, entry) pairs, built once and kept."""
        rows = self._nonzero
        if rows is None:
            rows = tuple(tuple([(j, x) for j, x in enumerate(row) if x.num]) for row in self.entries)
            set_slot(self, "_nonzero", rows)
        return rows

    def placed(self, left: int, right: int) -> QMatrix:
        """I_left (x) A (x) I_right of a square A, by index: entry a_ij lands at row
        (l n + i) right + r, column (l n + j) right + r for every l < left and r < right,
        and every other entry is ZERO."""
        if self.rows != self.cols:
            raise DimensionError("only a square matrix is placed on tensor legs")
        n = self.rows
        dim = left * n * right
        support = [[(j * right, a) for j, a in terms] for terms in self._nonzero_rows()]
        zeros = [ZERO] * dim
        out = []
        for base in range(0, dim, n * right):
            for terms in support:
                for r in range(base, base + right):
                    row = zeros.copy()
                    for col, a in terms:
                        row[col + r] = a
                    out.append(tuple(row))
        return QMatrix._built(dim, dim, tuple(out))

    def permuted(self, rows, cols=None) -> QMatrix:
        """The entries A[rows[i]][cols[j]], reindexed with no arithmetic.  For the permutation
        matrix P with P[i][pi(i)] = 1, rows = cols = pi gives P A P^-1, and cols None gives P A."""
        e = self.entries
        if cols is None:
            return QMatrix._built(len(rows), self.cols, tuple(e[i] for i in rows))
        return QMatrix._built(len(rows), len(cols), tuple(tuple([e[i][j] for j in cols]) for i in rows))

    def kron(self, other: QMatrix) -> QMatrix:
        rows = []
        for r1 in self.entries:
            for r2 in other.entries:
                rows.append(tuple(a * b for a in r1 for b in r2))
        return QMatrix._built(self.rows * other.rows, self.cols * other.cols, tuple(rows))

    @property
    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i, row in enumerate(self.entries):
            if row[i] != ONE or any(not x.is_zero for j, x in enumerate(row) if j != i):
                return False
        return True

    def det(self) -> LaurentScalar:
        if self.rows != self.cols:
            raise DimensionError("determinant of a non-square matrix")
        n = self.rows
        a = [list(r) for r in self.entries]
        det = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if not a[r][col].is_zero), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det = det * a[col][col]
            inv = a[col][col].inverse()
            for r in range(col + 1, n):
                if a[r][col].is_zero:
                    continue
                factor = a[r][col] * inv
                for c in range(col, n):
                    if not a[col][c].is_zero:
                        a[r][c] = a[r][c] - factor * a[col][c]
        return det

    def inverse(self) -> QMatrix:
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        a = [list(r) + list(e) for r, e in zip(self.entries, QMatrix.identity(n).entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not a[r][col].is_zero), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
            inv = a[col][col].inverse()
            a[col] = [x * inv for x in a[col]]
            for r in range(n):
                if r == col or a[r][col].is_zero:
                    continue
                factor = a[r][col]
                a[r] = [x if y.is_zero else x - factor * y for x, y in zip(a[r], a[col])]
        return QMatrix._built(n, n, tuple(tuple(row[n:]) for row in a))

    def specialize(self, q0: Fraction) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(x.specialize(q0) for x in r) for r in self.entries)

    def to_strings(self) -> list[list[str]]:
        return [[x.to_text() for x in r] for r in self.entries]
