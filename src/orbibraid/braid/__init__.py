from .garside import GarsideNF, braid_eq, cyl_braid_eq, garside_nf
from .lk import lk_matrix
from .words import KAPPA, BraidWord, embed_cyl, strand_ends

__all__ = [
    "KAPPA",
    "BraidWord",
    "GarsideNF",
    "braid_eq",
    "cyl_braid_eq",
    "embed_cyl",
    "garside_nf",
    "lk_matrix",
    "strand_ends",
]
