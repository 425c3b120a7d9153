"""Exact toolkit for strong-Lefschetz verification of Gorenstein algebras
generated by determinants, symmetric determinants, Pfaffians, quadrics, and
their powers."""

from .errors import (
    InvalidSpecError,
    InvariantError,
    LefkitError,
    NotLinearError,
    OutOfRangeError,
    TooLargeError,
    VarMismatchError,
    ZeroPolynomialError,
)
from .exactmath import (
    RatMatrix,
    mat_det,
    mat_kernel,
    mat_rank,
)
from .families import (
    FamilyKind,
    FamilySpec,
    canonical_lefschetz,
    coeffs_to_matrix,
    family_symmetry,
    kind_from_name,
    make_invariant,
    orbit_test,
    pfaffian_poly,
    predicted_hilbert,
)
from .lefschetz import (
    HessianTable,
    SlpReport,
    SlpRow,
    SlpTable,
    TheoremSummary,
    default_degree_basis,
    hessian_determinants_at,
    slp_check,
    verify_theorem,
)
from .macaulay import (
    CatMatrix,
    HilbertFn,
    Symmetry,
    annihilator_basis,
    catalecticant,
    hilbert_function,
)
from .polyring import (
    Monomial,
    Poly,
    format_poly,
    monomials_of_degree,
    poly_mul,
    poly_pow,
    scale_variables,
)

__version__ = "0.1.0"

__all__ = [
    "CatMatrix",
    "FamilyKind",
    "FamilySpec",
    "HessianTable",
    "HilbertFn",
    "InvalidSpecError",
    "InvariantError",
    "LefkitError",
    "Monomial",
    "NotLinearError",
    "OutOfRangeError",
    "Poly",
    "RatMatrix",
    "SlpReport",
    "SlpRow",
    "SlpTable",
    "Symmetry",
    "TheoremSummary",
    "TooLargeError",
    "VarMismatchError",
    "ZeroPolynomialError",
    "annihilator_basis",
    "canonical_lefschetz",
    "catalecticant",
    "coeffs_to_matrix",
    "default_degree_basis",
    "family_symmetry",
    "format_poly",
    "hessian_determinants_at",
    "hilbert_function",
    "kind_from_name",
    "make_invariant",
    "mat_det",
    "mat_kernel",
    "mat_rank",
    "monomials_of_degree",
    "orbit_test",
    "pfaffian_poly",
    "poly_mul",
    "poly_pow",
    "predicted_hilbert",
    "scale_variables",
    "slp_check",
    "verify_theorem",
]
