from .checks import CylRep, build_cyl_rep, eval_braid, reflection_check, yang_baxter_check
from .evalmor import eval_mor
from .laurent import ONE, ZERO, LaurentScalar, parse_scalar
from .qmatrix import QMatrix
from .repdata import RepData

__all__ = [
    "ONE",
    "ZERO",
    "CylRep",
    "LaurentScalar",
    "QMatrix",
    "RepData",
    "build_cyl_rep",
    "eval_braid",
    "eval_mor",
    "parse_scalar",
    "reflection_check",
    "yang_baxter_check",
]
