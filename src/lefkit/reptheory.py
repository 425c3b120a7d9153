"""Representation-theoretic predictions used as independent cross-checks.

The Hilbert function of the symmetric-determinant quotient is predicted
without any catalecticant: simple gl_n summands are enumerated by exponent
tuples (k_1, ..., k_r) with k_1 + ... + k_r <= s, graded by
k_1 + 2 k_2 + ... + r k_r, and their dimensions come from the Weyl
dimension formula.  The q_mu product detects the same cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from .errors import NotDominantError, OutOfRangeError, TooLargeError
from .macaulay import HilbertFn, resolve_budget

Weight = tuple[int, ...]


def weyl_dim_gl(weight: Sequence[int]) -> int:
    """dim V_lambda = prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i)
    for a weakly decreasing integer tuple."""
    lam = tuple(int(x) for x in weight)
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise NotDominantError(f"weight {lam} is not weakly decreasing")
    n = len(lam)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def narayana(n: int, k: int) -> int:
    """N(n, k) = (1/n) C(n, k) C(n, k-1)."""
    if not 1 <= k <= n:
        raise OutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    value = comb(n, k) * comb(n, k - 1)
    assert value % n == 0
    return value // n


def narayana_hilbert(n: int) -> HilbertFn:
    """The sequence (N(n+1, 1), ..., N(n+1, n+1)): the predicted Hilbert
    function of the quotient by the annihilator of the n x n symmetric
    determinant."""
    if n < 1:
        raise OutOfRangeError("need n >= 1")
    return HilbertFn(n, tuple(narayana(n + 1, k) for k in range(1, n + 2)))


@dataclass(frozen=True)
class ExponentTuple:
    """Summand label (k_1, ..., k_r); graded degree k_1 + 2k_2 + ... + r*k_r."""

    k: tuple[int, ...]

    def __post_init__(self):
        if any(x < 0 for x in self.k):
            raise ValueError("exponents are non-negative")

    @property
    def rank(self) -> int:
        return len(self.k)

    @property
    def total(self) -> int:
        return sum(self.k)

    @property
    def graded_degree(self) -> int:
        return sum((i + 1) * x for i, x in enumerate(self.k))


def q_mu(k: "ExponentTuple | Sequence[int]", s, d) -> Fraction:
    """The double product prod_{i=0}^{r-1} prod_{l=0}^{k_{i+1}+...+k_r - 1}
    (i*d/2 + s - l); empty inner ranges contribute 1.  Rational s and d are
    accepted so the predicate can be probed off the integer locus."""
    ks = tuple(k.k) if isinstance(k, ExponentTuple) else tuple(int(x) for x in k)
    if any(x < 0 for x in ks):
        raise ValueError("exponents are non-negative")
    s = Fraction(s)
    d = Fraction(d)
    r = len(ks)
    value = Fraction(1)
    for i in range(r):
        tail = sum(ks[i:])  # k_{i+1} + ... + k_r with 1-based indexing
        for l in range(tail):
            value *= Fraction(i) * d / 2 + s - l
    return value


def _tuples_with_total_at_most(r: int, s: int) -> Iterator[tuple[int, ...]]:
    if r == 0:
        yield ()
        return
    for first in range(s + 1):
        for rest in _tuples_with_total_at_most(r - 1, s - first):
            yield (first,) + rest


def type_c_weight(n: int, ks: Sequence[int]) -> Weight:
    """Highest weight sum(k_i * lambda_i) for the symmetric-determinant
    family: lambda_i has -2 in its last i entries, so entry p is
    -2 (k_{n-p+1} + ... + k_n)."""
    entries = []
    for p in range(1, n + 1):
        entries.append(-2 * sum(ks[n - p :]))
    return tuple(entries)


def predicted_hilbert_typeC(n: int, s: int, budget: int | None = None) -> HilbertFn:
    """Predicted Hilbert function of the quotient by the annihilator of the
    s-th power of the n x n symmetric determinant: sum Weyl dimensions of the
    surviving summands by graded degree.  Socle degree is n*s.  The summand
    count is held to the cell budget (``macaulay.resolve_budget``)."""
    if n < 1 or s < 1:
        raise OutOfRangeError("need n >= 1 and s >= 1")
    tuple_count = comb(n + s, n)
    limit = resolve_budget(budget)
    if tuple_count > limit:
        raise TooLargeError(f"{tuple_count} summands exceed the budget {limit}")
    values = [0] * (n * s + 1)
    for ks in _tuples_with_total_at_most(n, s):
        degree = sum((i + 1) * x for i, x in enumerate(ks))
        values[degree] += weyl_dim_gl(type_c_weight(n, ks))
    return HilbertFn(n * s, tuple(values))
