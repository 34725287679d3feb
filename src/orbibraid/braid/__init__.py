from .garside import GarsideNF, braid_eq, cyl_braid_eq, garside_nf
from .lk import lk_matrix
from .words import (
    KAPPA,
    BraidWord,
    CylBraidWord,
    all_pole_windings,
    embed_cyl,
    pole_winding,
    word_positions,
)

__all__ = [
    "KAPPA",
    "BraidWord",
    "CylBraidWord",
    "GarsideNF",
    "all_pole_windings",
    "braid_eq",
    "cyl_braid_eq",
    "embed_cyl",
    "garside_nf",
    "lk_matrix",
    "pole_winding",
    "word_positions",
]
