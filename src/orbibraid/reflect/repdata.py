"""Concrete (R, K, phi) data for the matrix semantics, with file loading.

A RepData bundle fixes a d-dimensional object V and an m-dimensional
module object M, the braiding matrix R on V (x) V, the K-matrix on
M (x) V, and the matrix T realising the involution on V.  R and K are
checked invertible by exact determinant; T by taking T^-1, once, at load
(an identity T is its own inverse).  The bundle is the one place that
knows how T acts, by one rule (``twisted``): a leg whose strand is in an
odd state is conjugated by T.  The braiding, the pole winding and the
involution on morphisms all conjugate through it.  Two matrices are fixed
at load: the straightened pole winding ``kappa`` = (1 (x) T^-1) K, and the
``balancing`` that t evaluates to, the one given, else the identity when
T = T^-1 (T^2 = I), else None.

File format: a JSON document with integer fields ``d`` and ``m`` and the
matrices as nested arrays of strings in the scalar grammar, e.g.
``"q - q^-1"``.  Optional keys: ``T``, ``balancing``.  The twisted
R-matrices are conjugates of R by T (x) 1 and T (x) T, never data (see
``checks``): a file with the key ``Rphi`` or ``Rphiphi`` is refused with a
ParseError, as ignoring it would decide another equation than the file's.
"""

from __future__ import annotations

import json
import re
from functools import reduce

from ..errors import MAX_INDEX_DIGITS, DimensionError, ParseError, SingularMatrixError, line_and_column
from ..record import Record
from .qmatrix import QMatrix, leg_swap

MAX_JSON_DEPTH = 32  # the format nests 3 deep; json.loads recurses once per level
# A string literal, skipped whole (to the end of the text if unterminated, so the scan stays linear), a bracket,
# or a run of digits.
_SCANNED = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[][{}]|\d+')


def _check_text(text: str) -> None:
    """Refuse text whose arrays and objects nest past MAX_JSON_DEPTH, before json.loads recurses
    into it, or with a number of more than MAX_INDEX_DIGITS digits, whatever int() would read."""
    depth = 0
    for m in _SCANNED.finditer(text):
        c = m.group()
        if c in "[{":
            depth += 1
            if depth > MAX_JSON_DEPTH:
                where = line_and_column(text, m.start())
                raise ParseError(f"representation data nests deeper than {MAX_JSON_DEPTH} levels", *where)
        elif c in "]}":
            depth -= 1
        elif len(c) > MAX_INDEX_DIGITS and c[0] != '"':
            message = f"representation data: a number has at most {MAX_INDEX_DIGITS} digits, found {len(c)}"
            raise ParseError(message, *line_and_column(text, m.start()))


class RepData(Record):
    __slots__ = __match_args__ = ("d", "m", "R", "K", "T", "T_inv", "kappa", "balancing")

    @staticmethod
    def build(
        d: int,
        m: int,
        R: QMatrix,
        K: QMatrix,
        T: QMatrix | None = None,
        balancing: QMatrix | None = None,
    ) -> RepData:
        if R.rows != d * d or R.cols != d * d:
            raise DimensionError(f"R must be {d * d}x{d * d}")
        if K.rows != m * d or K.cols != m * d:
            raise DimensionError(f"K must be {m * d}x{m * d}")
        if T is None:  # built only once R bounds d
            T = QMatrix.identity(d)
        elif T.rows != d or T.cols != d:
            raise DimensionError(f"T must be {d}x{d}")
        for name, mat in (("R", R), ("K", K)):
            if mat.det().is_zero:
                raise SingularMatrixError(f"{name} must be invertible")
        try:
            T_inv = T if T.is_identity else T.inverse()
        except SingularMatrixError:
            raise SingularMatrixError("T must be invertible") from None
        if balancing is not None and (balancing.rows != d or balancing.cols != d):
            raise DimensionError(f"balancing must be {d}x{d}")
        # (1 (x) T^-1) K on M (x) V: the K-action straightened by T^-1, the pole winding of B^cyl_n.
        kappa = K if T.is_identity else T_inv.placed(m, 1) * K
        if balancing is None and T == T_inv:  # T^2 = I: t is the identity
            balancing = QMatrix.identity(d)
        return RepData(d, m, R, K, T, T_inv, kappa, balancing)

    @staticmethod
    def from_json_dict(doc: dict) -> RepData:
        if not isinstance(doc, dict):
            raise ParseError("representation data must be a JSON object", 1, 1)
        for key in ("Rphi", "Rphiphi"):
            if key in doc:
                raise ParseError(f"representation data: {key} is refused; the twisted R-matrices are conjugates of R by T", 1, 1)
        for key in ("d", "m", "R", "K"):
            if key not in doc:
                raise ParseError(f"representation data is missing {key}", 1, 1)

        def size(key):
            if type(doc[key]) is not int:  # JSON true, 2.9 and "2" are not sizes
                raise ParseError(f"representation data: {key} must be an integer", 1, 1)
            return doc[key]

        def mat(key):
            if key not in doc:
                return None
            rows = doc[key]
            if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(isinstance(s, str) for s in row) for row in rows
            ):
                raise ParseError(f"representation data: {key} must be an array of arrays of strings", 1, 1)
            return QMatrix.from_strings(rows)

        return RepData.build(size("d"), size("m"), mat("R"), mat("K"), mat("T"), mat("balancing"))

    @staticmethod
    def load(path) -> RepData:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        _check_text(text)
        return RepData.from_json_dict(json.loads(text))

    def twisted(self, A: QMatrix, states, lead: int = 1) -> QMatrix:
        """A conjugated by 1_lead (x) T^e1 (x) ... (x) T^ek, for the states (e1, ..., ek) of A's
        V legs: by T on each leg whose state is odd.  A itself when no state is odd or T = I."""
        if not any(e % 2 for e in states) or self.T.is_identity:
            return A
        eye = QMatrix.identity(self.d)
        by = reduce(QMatrix.kron, [self.T if e % 2 else eye for e in states]).placed(lead, 1)
        by_inv = reduce(QMatrix.kron, [self.T_inv if e % 2 else eye for e in states]).placed(lead, 1)
        return by * A * by_inv

    def braiding(self, e: int = 0, f: int = 0) -> QMatrix:
        """flip . (T^e (x) T^f) R (T^e (x) T^f)^-1 on V (x) V: the braiding of strands in states
        e and f.  Rhat = flip . R at (0, 0)."""
        return self.twisted(self.R, (e, f)).permuted(leg_swap(1, self.d))

    def winding(self, e: int) -> QMatrix:
        """(1 (x) T^e) K (1 (x) T^e)^-1 on M (x) V: the pole winding of a strand in state e."""
        return self.twisted(self.K, (e,), self.m)
