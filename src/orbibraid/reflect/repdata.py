"""Concrete (R, K, phi) data for the matrix semantics, with file loading.

A RepData bundle fixes a d-dimensional object V and an m-dimensional
module object M, the braiding matrix R on V (x) V, the K-matrix on
M (x) V, and the matrix T realising the involution on V.  The twisted
matrices default to conjugation by T on the twisted legs (and to R itself
for the doubly twisted one); R, K, T and any twisted matrix given
explicitly are checked invertible by exact determinant.

File format: a JSON document with integer fields ``d`` and ``m`` and the
matrices as nested arrays of strings in the scalar grammar, e.g.
``"q - q^-1"``.  Optional keys: ``T``, ``Rphi``, ``Rphiphi``,
``balancing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import DimensionError, ParseError, SingularMatrixError
from .qmatrix import QMatrix


@dataclass(frozen=True)
class RepData:
    d: int
    m: int
    R: QMatrix
    K: QMatrix
    T: QMatrix
    Rphi: QMatrix
    Rphiphi: QMatrix
    balancing: QMatrix | None = None

    @staticmethod
    def build(
        d: int,
        m: int,
        R: QMatrix,
        K: QMatrix,
        T: QMatrix | None = None,
        Rphi: QMatrix | None = None,
        Rphiphi: QMatrix | None = None,
        balancing: QMatrix | None = None,
    ) -> RepData:
        if T is None:
            T = QMatrix.identity(d)
        if R.rows != d * d or R.cols != d * d:
            raise DimensionError(f"R must be {d * d}x{d * d}")
        if K.rows != m * d or K.cols != m * d:
            raise DimensionError(f"K must be {m * d}x{m * d}")
        if T.rows != d or T.cols != d:
            raise DimensionError(f"T must be {d}x{d}")
        # Derived twists are R or a conjugate of it, so det R covers them.
        explicit = [(name, mat) for name, mat in (("Rphi", Rphi), ("Rphiphi", Rphiphi)) if mat is not None]
        if Rphi is None:
            t1 = T.kron(QMatrix.identity(d))
            Rphi = R if T.is_identity else t1 * R * t1.inverse()
        if Rphiphi is None:
            Rphiphi = R
        for name, mat in (("R", R), ("K", K), ("T", T), *explicit):
            if mat.det().is_zero:
                raise SingularMatrixError(f"{name} must be invertible")
        if balancing is not None and (balancing.rows != d or balancing.cols != d):
            raise DimensionError(f"balancing must be {d}x{d}")
        return RepData(d, m, R, K, T, Rphi, Rphiphi, balancing)

    @staticmethod
    def from_json_dict(doc: dict) -> RepData:
        if not isinstance(doc, dict):
            raise ParseError("representation data must be a JSON object", 1, 1)
        for key in ("d", "m", "R", "K"):
            if key not in doc:
                raise ParseError(f"representation data is missing {key}", 1, 1)

        def mat(key):
            return QMatrix.from_strings(doc[key]) if key in doc else None

        return RepData.build(
            int(doc["d"]),
            int(doc["m"]),
            QMatrix.from_strings(doc["R"]),
            QMatrix.from_strings(doc["K"]),
            T=mat("T"),
            Rphi=mat("Rphi"),
            Rphiphi=mat("Rphiphi"),
            balancing=mat("balancing"),
        )

    @staticmethod
    def from_text(text: str) -> RepData:
        return RepData.from_json_dict(json.loads(text))

    @staticmethod
    def load(path) -> RepData:
        with open(path, "r", encoding="utf-8") as fh:
            return RepData.from_json_dict(json.load(fh))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "R": self.R.to_strings(),
            "K": self.K.to_strings(),
            "T": self.T.to_strings(),
        }
