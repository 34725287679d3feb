"""Matrices over the rational-function field Q(q), exact throughout.

A matrix is its nonzero entries: ``terms[i]`` lists row i's nonzero
entries as (column, entry) pairs in ascending column order, so equal
matrices hold equal terms.  ``entries`` writes the dense rows out, every
zero included, for printing, specialisation and elimination.  A product
is row-wise over the terms on both sides (Gustavson, "Two fast algorithms
for sparse matrices", ACM TOMS 1978): each nonzero a_ik of the left
factor is multiplied into the nonzeros of row k of the right one, and a
sum that cancels to zero is dropped.  The generators of a cylinder
representation have one or two nonzeros a row, and most of them are
+-q^k, which ``LaurentScalar`` multiplies by a shift.  Structural
matrices cost no scalar arithmetic at all: ``placed`` writes
I (x) A (x) I by index, and ``permuted`` conjugates by a permutation of
tensor legs (Van Loan, "The ubiquitous Kronecker product", 2000) by
reindexing entries.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DimensionError, SingularMatrixError
from ..record import Record
from .laurent import ONE, ZERO, LaurentScalar, parse_scalar

Row = tuple[LaurentScalar, ...]
Terms = tuple[tuple[int, LaurentScalar], ...]


def leg_swap(left: int, d: int) -> tuple[int, ...]:
    """Index map of I_left (x) flip(d, d): (x, b, c) -> (x, c, b).  It is its own inverse."""
    dd = d * d
    return tuple(x * dd + c * d + b for x in range(left) for b in range(d) for c in range(d))


def _sparse(row) -> Terms:
    """The nonzero entries of a dense row, as (column, entry) pairs."""
    return tuple([(j, x) for j, x in enumerate(row) if x.num])


class QMatrix(Record):
    __slots__ = __match_args__ = ("rows", "cols", "terms")

    def __init__(self, rows: int, cols: int, terms: tuple[Terms, ...]):
        if rows < 1 or cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        if len(terms) != rows:
            raise DimensionError("entry grid does not match the declared shape")
        super().__init__(rows, cols, terms)

    @staticmethod
    def from_rows(rows) -> QMatrix:
        grid = [tuple(row) for row in rows]
        cols = len(grid[0]) if grid else 0
        if cols and any(len(row) != cols for row in grid):
            raise DimensionError("entry grid does not match the declared shape")
        return QMatrix(len(grid), cols, tuple(map(_sparse, grid)))

    @staticmethod
    def from_strings(rows) -> QMatrix:
        return QMatrix.from_rows([[parse_scalar(s) for s in row] for row in rows])

    @staticmethod
    def identity(n: int) -> QMatrix:
        return QMatrix(n, n, tuple(((i, ONE),) for i in range(n)))

    @property
    def entries(self) -> tuple[Row, ...]:
        """The dense rows, every zero written out."""
        return tuple(tuple([row.get(j, ZERO) for j in range(self.cols)]) for row in map(dict, self.terms))

    def __mul__(self, other: QMatrix) -> QMatrix:
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other.terms
        out = []
        for terms in self.terms:
            sums: dict[int, LaurentScalar] = {}
            for k, a in terms:
                for j, b in right[k]:
                    s = sums.get(j)
                    sums[j] = a * b if s is None else s + a * b
            out.append(tuple([(j, x) for j, x in sorted(sums.items()) if x.num]))
        return QMatrix(self.rows, other.cols, tuple(out))

    def placed(self, left: int, right: int) -> QMatrix:
        """I_left (x) A (x) I_right of a square A, by index: entry a_ij lands at row
        (l n + i) right + r, column (l n + j) right + r for every l < left and r < right."""
        if self.rows != self.cols:
            raise DimensionError("only a square matrix is placed on tensor legs")
        n = self.rows
        dim = left * n * right
        support = [[(j * right, a) for j, a in terms] for terms in self.terms]
        out = [
            tuple([(col + r, a) for col, a in terms])
            for base in range(0, dim, n * right)
            for terms in support
            for r in range(base, base + right)
        ]
        return QMatrix(dim, dim, tuple(out))

    def permuted(self, rows, cols=None) -> QMatrix:
        """The entries A[rows[i]][cols[j]], reindexed with no arithmetic.  For the permutation
        matrix P with P[i][pi(i)] = 1, rows = cols = pi gives P A P^-1, and cols None gives P A."""
        terms = self.terms
        if cols is None:
            return QMatrix(len(rows), self.cols, tuple(terms[i] for i in rows))
        lands: list[list[int]] = [[] for _ in range(self.cols)]  # the new columns of each old one
        for j, c in enumerate(cols):
            lands[c].append(j)
        out = tuple(tuple(sorted([(j, x) for c, x in terms[i] for j in lands[c]])) for i in rows)
        return QMatrix(len(rows), len(cols), out)

    def kron(self, other: QMatrix) -> QMatrix:
        """A (x) B; a product of two nonzeros is nonzero, so every product is kept."""
        c = other.cols
        out = [tuple([(i * c + j, a * b) for i, a in r1 for j, b in r2]) for r1 in self.terms for r2 in other.terms]
        return QMatrix(self.rows * other.rows, self.cols * c, tuple(out))

    @property
    def is_identity(self) -> bool:
        return self.rows == self.cols and all(terms == ((i, ONE),) for i, terms in enumerate(self.terms))

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
        return QMatrix(n, n, tuple(_sparse(row[n:]) for row in a))

    def specialize(self, q0: Fraction) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(x.specialize(q0) for x in r) for r in self.entries)

    def to_strings(self) -> list[list[str]]:
        return [[x.to_text() for x in r] for r in self.entries]
