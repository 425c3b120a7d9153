"""Catalecticant matrices, Hilbert functions, and annihilator graded pieces.

For a nonzero homogeneous F of degree c, the degree-i catalecticant pairs
operators of degree i (rows) against the degree c-i monomial basis (columns);
its rank is the Hilbert function value h_i of the Gorenstein quotient, and
the left kernel is the degree-i piece of the annihilator.  The matrix is
built straight from the terms of F, one entry per (term, degree-i divisor)
pair, and it is very sparse: an entry only pairs monomials of matching torus
weight, so ``mat_rank`` splits it into small blocks.  Each degree is an
independent rank computation: no elimination state is shared between i and
c-i, so transpose-rank duality stays a genuine cross-check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import perm, prod
from typing import Iterator

from .errors import (
    InvariantError,
    OutOfRangeError,
    TooLargeError,
    ZeroPolynomialError,
)
from .exactmath import RatMatrix, mat_kernel, mat_rank
from .polyring import Monomial, Poly, dim_of_degree, monomials_of_degree

DEFAULT_CELL_BUDGET = 4_000_000
BUDGET_ENV_VAR = "LEFKIT_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Explicit budget, else the LEFKIT_BUDGET environment variable, else
    the 4e6-cell default."""
    if budget is not None:
        value = int(budget)
    else:
        env = os.environ.get(BUDGET_ENV_VAR)
        value = int(env) if env else DEFAULT_CELL_BUDGET
    if value <= 0:
        raise ValueError("cell budget must be positive")
    return value


def max_catalecticant_cells(nvars: int, socle_degree: int) -> int:
    return max(
        dim_of_degree(nvars, i) * dim_of_degree(nvars, socle_degree - i)
        for i in range(socle_degree + 1)
    )


def ensure_within_budget(
    nvars: int, socle_degree: int, budget: int | None = None, samples: int = 1
) -> None:
    """Refuse when the largest catalecticant, counted once per sampled
    linear form, needs more cells than the budget."""
    limit = resolve_budget(budget)
    worst = max_catalecticant_cells(nvars, socle_degree)
    if worst > limit:
        raise TooLargeError(
            f"largest catalecticant needs {worst} cells, budget is {limit}"
        )
    if samples * worst > limit:
        raise TooLargeError(
            f"{samples} samples of the largest catalecticant need "
            f"{samples * worst} cells, budget is {limit}"
        )


def _require_homogeneous(f: Poly) -> int:
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no Macaulay dual data")
    c = f.homogeneous_degree()
    if c is None:
        raise ValueError("polynomial must be homogeneous")
    return c


@dataclass(frozen=True)
class CatMatrix:
    """The degree-i catalecticant with its monomial row/column labels."""

    degree: int
    matrix: RatMatrix
    row_monomials: tuple[Monomial, ...]
    col_monomials: tuple[Monomial, ...]


@dataclass(frozen=True)
class HilbertFn:
    """Hilbert function of an Artinian quotient, h_0..h_c."""

    socle_degree: int
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.socle_degree + 1:
            raise ValueError("need socle_degree + 1 values")
        if any(v < 0 for v in self.values):
            raise ValueError("Hilbert values are non-negative")

    def is_symmetric(self) -> bool:
        return self.values == self.values[::-1] and self.values[0] == 1

    def as_text(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"

    def __iter__(self):
        return iter(self.values)


def _divisors_of_degree(expo: Monomial, i: int) -> Iterator[Monomial]:
    """Every exponent tuple d <= expo (entrywise) of total degree i."""
    if len(expo) == 1:
        if i <= expo[0]:
            yield (i,)
        return
    rest = sum(expo[1:])
    for d in range(min(expo[0], i), max(0, i - rest) - 1, -1):
        for tail in _divisors_of_degree(expo[1:], i - d):
            yield (d,) + tail


def catalecticant(f: Poly, i: int) -> CatMatrix:
    """Rows: degree-i monomials acting by contraction; columns: the degree
    c-i monomial basis; entry = coefficient of the column monomial in
    (row monomial) contracted against f.

    Built from the terms of f: a term coeff*x^e gives, for each degree-i
    divisor d of x^e, the entry coeff * prod perm(e_k, d_k) at (row d,
    column e-d).  Distinct (term, divisor) pairs land in distinct
    cells, so nothing is summed.
    """
    c = _require_homogeneous(f)
    if not 0 <= i <= c:
        raise OutOfRangeError(f"degree {i} outside 0..{c}")
    rows = monomials_of_degree(f.nvars, i)
    cols = monomials_of_degree(f.nvars, c - i)
    row_index = {m: k for k, m in enumerate(rows)}
    col_index = {m: k for k, m in enumerate(cols)}
    entries = {}
    for expo, coeff in f.terms():
        for d in _divisors_of_degree(expo, i):
            value = coeff * prod(perm(e, k) for e, k in zip(expo, d))
            col = col_index[tuple(e - k for e, k in zip(expo, d))]
            entries[(row_index[d], col)] = value
    return CatMatrix(
        degree=i,
        matrix=RatMatrix(len(rows), len(cols), entries),
        row_monomials=tuple(rows),
        col_monomials=tuple(cols),
    )


def hilbert_function(f: Poly) -> HilbertFn:
    """h_i = rank of the degree-i catalecticant, one independent exact rank
    per degree.  Gorenstein symmetry of the result is asserted, not assumed."""
    c = _require_homogeneous(f)
    values = tuple(
        mat_rank(catalecticant(f, i).matrix) for i in range(c + 1)
    )
    fn = HilbertFn(c, values)
    if not fn.is_symmetric():
        raise InvariantError(
            f"Hilbert function {fn.as_text()} is not Gorenstein-symmetric"
        )
    return fn


def annihilator_basis(f: Poly, i: int) -> list[Poly]:
    """Basis of the degree-i graded piece of the annihilator: the left kernel
    of the catalecticant, mapped back to operator polynomials.  Every element
    contracts f to exactly zero."""
    cat = catalecticant(f, i)
    basis = []
    for vec in mat_kernel(cat.matrix.transpose()):
        terms = {
            mono: coeff
            for mono, coeff in zip(cat.row_monomials, vec)
            if coeff
        }
        basis.append(Poly(f.nvars, terms))
    return basis

