"""Exact Burnside / crossed Burnside ring computations for finite groups.

The package computes, over Z, Q, p-local and prime-field coefficients:
tables of marks, the rational and residual (Dress) idempotents of the
Burnside ring, the crossed Burnside ring with its integral primitive
idempotents, images in the center of the group algebra, block
idempotents over finite fields, and the span realization of the Mackey
algebra with its comparison maps.
"""

from .algebra import Algebra, Element
from .burnside import BurnsideRing, TableOfMarks
from .center import CenterAlgebra
from .crossed import CrossedBurnsideRing, CrossedPairClass
from .groups import (
    FiniteGroup,
    GroupTooLarge,
    NotNormal,
    Permutation,
    construct_group,
    parse_cycles,
    quotient_group,
)
from .mackey import HeckeAlgebra, MackeyAlgebra, SpanBasisElement
from .scalars import QQ, ZZ, ScalarError, p_local, prime_field, ring_from_tag
from .subgroups import (
    SubgroupClass,
    SubgroupClassTable,
    residual,
    subgroup_classes,
)

__all__ = [
    "Algebra",
    "BurnsideRing",
    "CenterAlgebra",
    "CrossedBurnsideRing",
    "Element",
    "CrossedPairClass",
    "FiniteGroup",
    "GroupTooLarge",
    "HeckeAlgebra",
    "MackeyAlgebra",
    "NotNormal",
    "Permutation",
    "QQ",
    "ScalarError",
    "SpanBasisElement",
    "SubgroupClass",
    "SubgroupClassTable",
    "TableOfMarks",
    "ZZ",
    "construct_group",
    "parse_cycles",
    "p_local",
    "prime_field",
    "quotient_group",
    "residual",
    "ring_from_tag",
    "subgroup_classes",
]
