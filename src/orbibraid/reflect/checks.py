"""Matrix-level verification: Yang-Baxter, twisted reflection, cylinder reps.

Leg conventions: tensor factors are ordered M (x) V_1 (x) ... (x) V_n;
numeric subscripts refer to the V legs.  The braiding operator is
Rhat = flip . R, so words in the cylinder braid group act by genuine
matrix products, with the pole winding represented by the T-straightened
K-action kappa = (1 (x) T^-1) K on the M (x) V_1 legs.  Both come from
``RepData`` (``braiding``, and ``kappa``, which it formed at load).

The twisted reflection equation is decided in its braid form, the kappa
relation (sigma_1 kappa)^2 = (kappa sigma_1)^2 on M (x) V_1 (x) V_2.
That is the equation ``eval_mor`` decides: the two routes of
``reflection_twisted.diag`` evaluate to T_1 T_2 sigma_1 kappa sigma_1 kappa and
T_1 T_2 kappa sigma_1 kappa sigma_1, as the twists of strands in state 1
cancel between neighbouring letters.  Expanded, it reads
K_1 R^phi_21 K_2 R_12 = R^{phi,phi}_21 K_2 R^phi_12 K_1 with
R^phi = (T (x) 1) R (T (x) 1)^-1 and R^{phi,phi} = (T (x) T) R (T (x) T)^-1,
Kolb-Balagovic's (phi (x) id)(R) and (phi (x) phi)(R).

Each cylinder-braid relation is checked once, on its own legs:
A (x) I = B (x) I exactly when A = B, and disjoint legs commute.  Every
placement on legs and every conjugation by a flip is an index map
(``QMatrix.placed``, ``QMatrix.permuted``); only the equations multiply.
"""

from __future__ import annotations

import math

from ..errors import DimensionError, RelationError
from .qmatrix import QMatrix, leg_swap
from .repdata import RepData
from ..record import Record

MAX_REP_DIM = 256  # largest matrix built: m d^n at n = 8 for d = 2, n = 5 for d = 3
BRAID_RELATION = "sigma_1 sigma_2 sigma_1 = sigma_2 sigma_1 sigma_2"
KAPPA_RELATION = "sigma_1 kappa sigma_1 kappa = kappa sigma_1 kappa sigma_1"


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
    """Whether R_12 R_13 R_23 = R_23 R_13 R_12 on V (x) V (x) V, exactly.

    R_12 and R_23 are placed on their legs by index, and R_13 is R_12 with
    legs 2 and 3 swapped by index.
    """
    if R.rows != R.cols:
        raise DimensionError("R must be square")
    d = _isqrt_exact(R.rows)
    _check_dim(1, d, 3)
    swap23 = leg_swap(d, d)
    r12 = R.placed(1, d)
    r23 = R.placed(d, 1)
    r13 = r12.permuted(swap23, swap23)
    return r12 * r13 * r23 == r23 * r13 * r12


def reflection_check(data: RepData) -> bool:
    """The twisted reflection equation, as the kappa relation (sigma_1 kappa)^2 = (kappa sigma_1)^2
    on M (x) V_1 (x) V_2 with sigma_1 = Rhat and kappa = (1 (x) T^-1) K.

    With T the identity this is the untwisted reflection equation
    K_1 R_21 K_2 R_12 = R_21 K_2 R_12 K_1.
    """
    _check_dim(data.m, data.d, 2)
    s1 = data.braiding().placed(data.m, 1)
    k = data.kappa.placed(1, data.d)
    s1k, ks1 = s1 * k, k * s1
    return s1k * s1k == ks1 * ks1


class CylRep(Record):
    """Verified matrix representation of B^cyl_n on M (x) V^(x)n; sigma[i-1] is the matrix of sigma_i."""

    __slots__ = __match_args__ = ("data", "n", "sigma", "kappa", "sigma_inv", "kappa_inv")

    @property
    def dim(self) -> int:
        return self.data.m * self.data.d**self.n

    def letter_matrix(self, letter: tuple[int, int]) -> QMatrix:
        """The matrix of one BraidWord letter (index, exponent)."""
        from ..braid.words import KAPPA  # a caller holding a BraidWord has loaded braid already

        i, e = letter
        if i == KAPPA:
            return self.kappa if e == 1 else self.kappa_inv
        return self.sigma[i - 1] if e == 1 else self.sigma_inv[i - 1]


def build_cyl_rep(data: RepData, n: int) -> CylRep:
    """Refuse m d^n past MAX_REP_DIM, verify the defining relations of B^cyl_n, then assemble
    the generator matrices.

    As A (x) I = B (x) I exactly when A = B, each relation is checked once, on its own legs,
    in the order and under the names of the full-size checks: every braid relation is the
    braid form of the Yang-Baxter equation of R on V^(x)3 (``yang_baxter_check``, for n >= 3),
    the kappa relation the twisted reflection equation on M (x) V^(x)2 (``reflection_check``,
    for n >= 2).  The far commutations and sigma_i kappa = kappa sigma_i (i >= 2) hold as
    operators on disjoint legs commute.  A failing relation raises a RelationError naming it.

    sigma_i is I_(m d^(i-1)) (x) Rhat (x) I_(d^(n-i-1)) and kappa is
    (1 (x) T^-1) K (x) I_(d^(n-1)).  As (A (x) B)^-1 = A^-1 (x) B^-1, only
    Rhat and (1 (x) T^-1) K are inverted.
    """
    d, m = data.d, data.m
    _check_dim(m, d, n)
    if n < 1:
        raise DimensionError("strand count must be positive")
    if n >= 3 and not yang_baxter_check(data.R):
        raise RelationError(BRAID_RELATION)
    if n >= 2 and not reflection_check(data):
        raise RelationError(KAPPA_RELATION)
    braiding, core = data.braiding(), data.kappa
    braiding_inv = braiding.inverse()
    legs = [(m * d ** (i - 1), d ** (n - i - 1)) for i in range(1, n)]  # V_i (x) V_(i+1)
    sigma = tuple(braiding.placed(left, right) for left, right in legs)
    sigma_inv = tuple(braiding_inv.placed(left, right) for left, right in legs)
    rest = d ** (n - 1)
    return CylRep(data, n, sigma, core.placed(1, rest), sigma_inv, core.inverse().placed(1, rest))


def eval_braid(rep: CylRep, w) -> QMatrix:
    """Multiplicative evaluation of the BraidWord w; the empty word maps to the identity."""
    if w.n != rep.n:
        raise DimensionError(f"word on {w.n} strands fed to a {rep.n}-strand representation")
    if not w.letters:
        return QMatrix.identity(rep.dim)
    out = rep.letter_matrix(w.letters[0])
    for letter in w.letters[1:]:
        out = out * rep.letter_matrix(letter)
    return out
