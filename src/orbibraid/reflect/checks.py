"""Matrix-level verification: Yang-Baxter, (twisted) reflection, cylinder reps.

Leg conventions: tensor factors are ordered M (x) V_1 (x) ... (x) V_n;
numeric subscripts refer to the V legs.  K_1 acts on M (x) V_1; K_2 is
K_1 conjugated through the flip of V_1 and V_2.  R_21 is R conjugated by
the flip.  The braiding operator is Rhat = flip . R, so words in the
cylinder braid group act by genuine matrix products, with the pole
winding represented by the T-straightened K-action (1 (x) T^-1) K on the
M (x) V_1 legs.  Each cylinder-braid relation is checked once, on its own
legs: A (x) I = B (x) I exactly when A = B, and disjoint legs commute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DimensionError, RelationError
from .qmatrix import QMatrix
from .repdata import RepData
from ..braid.words import KAPPA, BraidWord, CylBraidWord

MAX_REP_DIM = 256  # largest matrix built: m d^n at n = 8 for d = 2, n = 5 for d = 3


def _check_dim(m: int, d: int, n: int) -> None:
    """Refuse a matrix of m d^n rows past MAX_REP_DIM before it is built (the power stops
    at the cap's bit length, past which d^n passes the cap for every d >= 2)."""
    if m * d ** min(n, MAX_REP_DIM.bit_length()) > MAX_REP_DIM:
        raise DimensionError(f"dimension {m}*{d}^{n} exceeds the cap of {MAX_REP_DIM}")


def _isqrt_exact(n: int) -> int:
    r = math.isqrt(n)
    if r * r != n:
        raise DimensionError(f"matrix of size {n} is not a square tensor power")
    return r


def yang_baxter_check(R: QMatrix) -> bool:
    """Whether R_12 R_13 R_23 = R_23 R_13 R_12 on V (x) V (x) V, exactly."""
    if R.rows != R.cols:
        raise DimensionError("R must be square")
    d = _isqrt_exact(R.rows)
    _check_dim(1, d, 3)
    eye = QMatrix.identity(d)
    flip23 = eye.kron(QMatrix.flip(d, d))
    r12 = R.kron(eye)
    r23 = eye.kron(R)
    r13 = flip23 * r12 * flip23
    return r12 * r13 * r23 == r23 * r13 * r12


def _legs(data: RepData):
    d, m = data.d, data.m
    eye_d = QMatrix.identity(d)
    eye_m = QMatrix.identity(m)
    p = eye_m.kron(QMatrix.flip(d, d))  # swap V_1 V_2 over M
    k1 = data.K.kron(eye_d)
    k2 = p * k1 * p
    r12 = eye_m.kron(data.R)
    rphi12 = eye_m.kron(data.Rphi)
    rphi21 = p * rphi12 * p
    rphiphi21 = p * eye_m.kron(data.Rphiphi) * p
    return k1, k2, r12, rphi12, rphi21, rphiphi21


def reflection_check(data: RepData) -> bool:
    """The phi-twisted reflection equation K1 R21^phi K2 R12 = R21^{phi,phi} K2 R12^phi K1.

    With Rphi = Rphiphi = R and T the identity this is the untwisted
    reflection equation.
    """
    _check_dim(data.m, data.d, 2)
    k1, k2, r12, rphi12, rphi21, rphiphi21 = _legs(data)
    return k1 * rphi21 * k2 * r12 == rphiphi21 * k2 * rphi12 * k1


@dataclass(frozen=True)
class CylRep:
    """Verified matrix representation of B^cyl_n on M (x) V^(x)n."""

    data: RepData
    n: int
    sigma: tuple[QMatrix, ...]  # sigma[i-1] is the matrix of sigma_i
    kappa: QMatrix
    sigma_inv: tuple[QMatrix, ...]
    kappa_inv: QMatrix

    @property
    def dim(self) -> int:
        return self.data.m * self.data.d**self.n

    def letter_matrix(self, letter: tuple[int, int]) -> QMatrix:
        i, e = letter
        if i == KAPPA:
            return self.kappa if e == 1 else self.kappa_inv
        return self.sigma[i - 1] if e == 1 else self.sigma_inv[i - 1]


def cyl_relations(data: RepData, n: int, yang_baxter: bool | None = None) -> tuple[QMatrix, QMatrix]:
    """Check the defining relations of B^cyl_n.

    As A (x) I = B (x) I exactly when A = B, each relation is checked once,
    on its own legs, in the order and under the names of the full-size
    checks: every braid relation is the braid form of the Yang-Baxter
    equation of R on V^(x)3 (``yang_baxter``, if given, is its known
    outcome), the kappa relation one identity on M (x) V^(x)2.  The far
    commutations and sigma_i kappa = kappa sigma_i (i >= 2) hold as
    operators on disjoint legs commute.  A failing relation raises a
    RelationError naming it.  Returns Rhat and (1 (x) T^-1) K.
    """
    if n < 1:
        raise DimensionError("strand count must be positive")
    d, m = data.d, data.m
    rhat = QMatrix.flip(d, d) * data.R
    core = QMatrix.identity(m).kron(data.T.inverse()) * data.K
    if n >= 3 and not (yang_baxter_check(data.R) if yang_baxter is None else yang_baxter):
        raise RelationError("sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2")
    if n >= 2:
        _check_dim(m, d, 2)
        s1 = QMatrix.identity(m).kron(rhat)
        k = core.kron(QMatrix.identity(d))
        if s1 * k * s1 * k != k * s1 * k * s1:
            raise RelationError("sigma_1 kappa sigma_1 kappa = kappa sigma_1 kappa sigma_1")
    return rhat, core


def build_cyl_rep(data: RepData, n: int) -> CylRep:
    """Refuse m d^n past MAX_REP_DIM, verify the defining relations
    (``cyl_relations``), then assemble the generator matrices.

    sigma_i is I_(m d^(i-1)) (x) Rhat (x) I_(d^(n-i-1)) and kappa is
    (1 (x) T^-1) K (x) I_(d^(n-1)).  As (A (x) B)^-1 = A^-1 (x) B^-1, only
    Rhat and (1 (x) T^-1) K are inverted.
    """
    d, m = data.d, data.m
    _check_dim(m, d, n)
    rhat, core = cyl_relations(data, n)

    def place(mat: QMatrix, i: int) -> QMatrix:
        """mat on the legs M (x) V_1 for i = 0, on V_i (x) V_(i+1) otherwise."""
        left = m * d ** (i - 1) if i else 1
        return QMatrix.identity(left).kron(mat).kron(QMatrix.identity(d ** (n - i - 1)))

    rhat_inv = rhat.inverse()
    sigma = tuple(place(rhat, i) for i in range(1, n))
    sigma_inv = tuple(place(rhat_inv, i) for i in range(1, n))
    return CylRep(data, n, sigma, place(core, 0), sigma_inv, place(core.inverse(), 0))


def eval_braid(rep: CylRep, w: CylBraidWord | BraidWord) -> QMatrix:
    """Multiplicative evaluation of a word; the empty word maps to the identity."""
    if w.n != rep.n:
        raise DimensionError(f"word on {w.n} strands fed to a {rep.n}-strand representation")
    if not w.letters:
        return QMatrix.identity(rep.dim)
    out = rep.letter_matrix(w.letters[0])
    for letter in w.letters[1:]:
        out = out * rep.letter_matrix(letter)
    return out
