from fractions import Fraction

from .checks import CylRep, build_cyl_rep, cyl_relations, eval_braid, reflection_check, yang_baxter_check
from .evalmor import eval_mor
from .laurent import ONE, ZERO, LaurentScalar, parse_scalar
from .qmatrix import QMatrix
from .repdata import RepData


def specialize(x: LaurentScalar | QMatrix, q0):
    """Exact evaluation at q = q0 (a nonzero rational)."""
    return x.specialize(Fraction(q0))


__all__ = [
    "specialize",
    "ONE",
    "ZERO",
    "CylRep",
    "LaurentScalar",
    "QMatrix",
    "RepData",
    "build_cyl_rep",
    "cyl_relations",
    "eval_braid",
    "eval_mor",
    "parse_scalar",
    "reflection_check",
    "yang_baxter_check",
]
