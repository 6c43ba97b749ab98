from .fields import QQ, FieldTower
from .polynomials import BiPoly, UniPoly, bipoly_gcd, squarefree_part
from .factor import (
    extend,
    factor_univariate,
    is_irreducible,
    squarefree_decomposition,
)

__all__ = [
    "QQ",
    "FieldTower",
    "UniPoly",
    "BiPoly",
    "bipoly_gcd",
    "squarefree_part",
    "factor_univariate",
    "squarefree_decomposition",
    "is_irreducible",
    "extend",
]
