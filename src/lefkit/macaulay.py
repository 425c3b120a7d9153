"""Catalecticant matrices, Hilbert functions, and annihilator graded pieces.

For a nonzero homogeneous F of degree c, the degree-i catalecticant pairs
operators of degree i (rows) against the degree c-i monomial basis (columns);
its rank is the Hilbert function value h_i of the Gorenstein quotient, and
the left kernel is the degree-i piece of the annihilator.  The matrix is
built straight from the terms of F, one entry per (term, degree-i divisor)
pair, and it is very sparse: an entry only pairs monomials of matching torus
weight, so ``mat_rank`` splits it into small blocks.

One enumerator makes every catalecticant entry, here and in
``lefschetz.SlpTable``: it walks the divisors of each term, pruned by degree,
and gives integer entries over one recorded scale D (the lcm of F's
coefficient denominators), with monomials as mixed-radix integer keys.  The
rank path (``hilbert_function``) ranks those integers with rows and columns
numbered by key, and never lists monomial labels; only the public
``catalecticant`` attaches graded-lex labels and divides by D (when D > 1),
so its entries are the exact rationals.  Each degree is an independent rank
computation: no elimination state is shared between i and c-i, so
transpose-rank duality stays a genuine cross-check.  The cell budget still
counts the dense cells of the largest catalecticant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, perm

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


def _key(expo: Monomial, base: int) -> int:
    # sum e_k * base^k, by Horner's rule
    key = 0
    for e in reversed(expo):
        key = key * base + e
    return key


def _monomial(key: int, base: int, nvars: int) -> Monomial:
    out = []
    for _ in range(nvars):
        key, e = divmod(key, base)
        out.append(e)
    return tuple(out)


def _divisors(expo: Monomial, base: int, low: int, high: int, value: int = 1):
    """(key, degree, value * prod perm(e_k, d_k)) for every divisor x^d of
    x^expo of degree low..high; a partial divisor that can no longer reach
    that range is pruned.  The key of d is sum d_k * base^k, so for base >
    every exponent the key of x^(e - d) is key(e) - key(d)."""
    parts = [(0, 0, value)]
    step = 1
    left = sum(expo)  # degree still available after this variable
    for e in expo:
        left -= e
        if e:
            parts = [
                (key + d * step, deg + d, v * perm(e, d))
                for key, deg, v in parts
                for d in range(max(0, low - deg - left), min(e, high - deg) + 1)
            ]
        step *= base
    return parts


def _scale(f: Poly) -> int:
    """D, the lcm of F's coefficient denominators: D*F has integer
    coefficients."""
    return lcm(*(coeff.denominator for _, coeff in f.terms()))


def _entries(f: Poly, base: int, low: int, high: int):
    """The catalecticant entry enumerator: for every term coeff*x^e of F and
    divisor x^mu of degree low..high, (key mu, degree, key(e) - key(mu),
    entry) with the integer entry D * coeff * prod perm(e_k, mu_k), D =
    _scale(f): row mu and column x^(e - mu) of the degree-deg catalecticant
    of D*F.  Distinct (term, divisor) pairs give distinct (row, column)
    cells."""
    scale = _scale(f)
    for expo, coeff in f.terms():
        whole = _key(expo, base)
        value = coeff.numerator * (scale // coeff.denominator)
        for mu, deg, entry in _divisors(expo, base, low, high, value):
            yield mu, deg, whole - mu, entry


def catalecticant(f: Poly, i: int) -> CatMatrix:
    """Rows: degree-i monomials acting by contraction; columns: the degree
    c-i monomial basis; entry = coefficient of the column monomial in
    (row monomial) contracted against f.  Rows and columns are graded-lex,
    and an entry is coeff * prod perm(e_k, d_k) for a term coeff*x^e and a
    degree-i divisor x^d of it, at (row d, column e-d): the enumerator's
    integer entry divided by its scale D."""
    c = _require_homogeneous(f)
    if not 0 <= i <= c:
        raise OutOfRangeError(f"degree {i} outside 0..{c}")
    base = c + 1
    rows = monomials_of_degree(f.nvars, i)
    cols = monomials_of_degree(f.nvars, c - i)
    row_index = {_key(m, base): k for k, m in enumerate(rows)}
    col_index = {_key(m, base): k for k, m in enumerate(cols)}
    entries = {
        (row_index[mu], col_index[rest]): entry
        for mu, _, rest, entry in _entries(f, base, i, i)
    }
    scale = _scale(f)
    if scale > 1:  # back to F's own entries; RatMatrix keeps integral ones as int
        matrix = RatMatrix(len(rows), len(cols), {
            cell: Fraction(entry, scale) for cell, entry in entries.items()
        })
    else:
        matrix = RatMatrix._of(len(rows), len(cols), entries)
    return CatMatrix(
        degree=i,
        matrix=matrix,
        row_monomials=tuple(rows),
        col_monomials=tuple(cols),
    )


def hilbert_function(f: Poly) -> HilbertFn:
    """h_i = rank of the degree-i catalecticant, one independent exact rank
    per degree.  Gorenstein symmetry of the result is asserted, not assumed.

    Each rank is taken on the enumerator's integer entries (D times the
    catalecticant, the same rank), rows and columns numbered by key in the
    order first seen, so no monomial label is listed."""
    c = _require_homogeneous(f)
    base = c + 1
    values = []
    for i in range(c + 1):
        row_at: dict[int, int] = {}
        col_at: dict[int, int] = {}
        entries = {}
        for mu, _, rest, entry in _entries(f, base, i, i):
            r = row_at.setdefault(mu, len(row_at))
            entries[(r, col_at.setdefault(rest, len(col_at)))] = entry
        matrix = RatMatrix._of(
            dim_of_degree(f.nvars, i), dim_of_degree(f.nvars, c - i), entries
        )
        values.append(mat_rank(matrix))
    fn = HilbertFn(c, tuple(values))
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

