"""Exact-arithmetic engine for Frobenius extensions, Jones towers and
Hopf algebra reconstruction on finite-dimensional algebra extensions."""

__version__ = "0.1.0"

from .fields import Field, FieldError, PrimeField, RationalField
from .linalg import LinMap, Matrix, invert, kernel_basis, rank, rref, solve
from .algebra import (
    Algebra,
    AlgebraError,
    SubspaceBasis,
    centralizer,
    check_morphism,
    endomorphism_algebra,
    verify_algebra,
)
from .frobenius import (
    ExtensionSpec,
    FrobeniusError,
    FrobeniusSystem,
    classify,
    compose,
    nakayama,
    normalize,
    separability_element_field,
    solve_dual_bases,
    verify_conditional_expectation,
)
from .tower import (
    TowerData,
    TowerError,
    basic_construction,
    build_tower,
    endo_ring_iso,
    verify_braid_relations,
    verify_pimsner_popa,
)

__all__ = [
    "Field",
    "FieldError",
    "PrimeField",
    "RationalField",
    "Matrix",
    "invert",
    "kernel_basis",
    "rank",
    "rref",
    "solve",
    "Algebra",
    "AlgebraError",
    "LinMap",
    "SubspaceBasis",
    "centralizer",
    "check_morphism",
    "endomorphism_algebra",
    "verify_algebra",
    "ExtensionSpec",
    "FrobeniusError",
    "FrobeniusSystem",
    "classify",
    "compose",
    "nakayama",
    "normalize",
    "separability_element_field",
    "solve_dual_bases",
    "verify_conditional_expectation",
    "TowerData",
    "TowerError",
    "basic_construction",
    "build_tower",
    "endo_ring_iso",
    "verify_braid_relations",
    "verify_pimsner_popa",
]
