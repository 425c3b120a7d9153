"""Exact toolkit for strong-Lefschetz verification of Gorenstein algebras
generated by determinants, symmetric determinants, Pfaffians, quadrics, and
their powers.

``import lefkit`` loads no submodule: each name of ``__all__`` (one table,
``_EXPORTS``, says which module holds it) and each submodule resolves on
first use.  The modules import in layers: ``errors`` <- ``polyring`` <-
``families`` at the base, and the rank engine ``exactmath`` <- ``macaulay``
<- ``lefschetz`` above it; ``cli`` loads per command what that command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "InvalidSpecError", "InvariantError", "LefkitError", "NotLinearError",
        "OutOfRangeError", "TooLargeError", "VarMismatchError",
        "ZeroPolynomialError",
    ),
    "exactmath": ("RatMatrix", "mat_det", "mat_kernel", "mat_rank"),
    "families": (
        "FamilyKind", "FamilySpec", "canonical_lefschetz", "coeffs_to_matrix",
        "family_symmetry", "kind_from_name", "make_invariant", "orbit_test",
        "pfaffian_poly", "predicted_hilbert",
    ),
    "lefschetz": (
        "HessianTable", "SlpReport", "SlpRow", "SlpTable", "TheoremSummary",
        "default_degree_basis", "hessian_determinants_at", "slp_check",
        "verify_theorem",
    ),
    "macaulay": (
        "CatMatrix", "HilbertFn", "Symmetry", "annihilator_basis",
        "catalecticant", "hilbert_function",
    ),
    "polyring": (
        "Monomial", "Poly", "format_poly", "monomials_of_degree", "poly_mul",
        "poly_pow", "scale_variables",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the module behind ``name`` on first access (PEP 562); an
    exported value is then kept in this module's globals."""
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
