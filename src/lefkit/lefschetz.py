"""Strong Lefschetz verification.

The multiplication map by L^(c-2i) on the degree-i piece of the Gorenstein
quotient is bijective exactly when the matrix of m |-> (L^(c-2i) m)
contracted against F has rank h_i; both sides factor through the perfect
pairing, so comparing that rank with the degree-i catalecticant rank decides
each degree without ever constructing quotient bases.  L^k contracted
against F is built as L contracted against L^(k-1) contracted against F,
one contraction per k, never from a power of L.  The higher-Hessian
determinants evaluated at L's coefficient point give an independent route
to the same verdict; the entries of the i-th higher Hessian are read from
rows of the degree-2i catalecticant of F, and never from the L-contraction
chain or a rank.  verify_theorem cross-validates the slp_check verdict
(not the Hessian one) against open-orbit membership on seeded samples plus
deterministic rank-deficient candidates.  Everything here uses the plain
apolarity pairing; a weighted pairing is the plain one against F(w*x)
(polyring.scale_variables).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NotLinearError, OutOfRangeError, VarMismatchError
from .exactmath import RatMatrix, mat_det, mat_rank, pivot_rows
from .families import (
    FamilySpec,
    canonical_lefschetz,
    deficient_candidates,
    make_invariant,
    orbit_test,
)
from .macaulay import (
    _require_homogeneous,
    catalecticant,
    ensure_within_budget,
    hilbert_function,
)
from .polyring import Monomial, Poly, contract


@dataclass(frozen=True)
class SlpRow:
    i: int
    required: int
    achieved: int

    @property
    def passed(self) -> bool:
        return self.achieved == self.required


@dataclass(frozen=True)
class SlpReport:
    """Per-degree ranks of the maps x L^(c-2i), i = 0..floor(c/2)."""

    c: int
    rows: tuple[SlpRow, ...]

    @property
    def verdict(self) -> bool:
        return all(row.passed for row in self.rows)


def _validate_slp_inputs(f: Poly, L: Poly) -> int:
    c = _require_homogeneous(f)
    if L.nvars != f.nvars:
        raise VarMismatchError(
            f"L has {L.nvars} variables, F has {f.nvars}"
        )
    if L.is_zero() or L.homogeneous_degree() != 1:
        raise NotLinearError("L must be a nonzero homogeneous linear form")
    return c


def slp_check(
    f: Poly,
    L: Poly,
    required: Sequence[int] | None = None,
) -> SlpReport:
    """Exact per-degree report on x L^(c-2i); verdict is True iff L is a
    Lefschetz element of the quotient generated by F.  `required` is the
    Hilbert function of F (default: computed here); callers checking many
    candidates against one F should compute it once."""
    c = _validate_slp_inputs(f, L)
    if required is None:
        required = hilbert_function(f).values
    shifted = [f]  # shifted[k] = L^k contracted against F
    for _ in range(c):
        shifted.append(contract(L, shifted[-1]))
    rows = []
    for i in range(c // 2 + 1):
        g = shifted[c - 2 * i]
        # deg g = 2i, so this square matrix realizes the pairing
        # (m, m') -> (L^(c-2i) m m')(F) on degree-i monomials.
        achieved = mat_rank(catalecticant(g, i).matrix) if g else 0
        rows.append(SlpRow(i=i, required=required[i], achieved=achieved))
    return SlpReport(c=c, rows=tuple(rows))


# ---------------------------------------------------------------------------
# higher Hessians


def default_degree_basis(f: Poly, i: int) -> list[Monomial]:
    """Monomials whose catalecticant rows are pivot rows of the deterministic
    elimination: a canonical basis of the degree-i quotient piece."""
    cat = catalecticant(f, i)
    return [cat.row_monomials[r] for r in pivot_rows(cat.matrix)]


def higher_hessian(f: Poly, i: int) -> list[list[Poly]]:
    """The i-th higher Hessian of F, for 0 <= i <= c//2: entry (j, k) is
    (b_j * b_k) contracted against F, homogeneous of degree c - 2i, over the
    basis b of default_degree_basis.  That contraction is the row of the
    degree-2i catalecticant at the monomial b_j * b_k, so every entry is read
    from that one matrix."""
    c = _require_homogeneous(f)
    if not 0 <= i <= c // 2:
        raise OutOfRangeError(f"Hessian order {i} outside 0..{c // 2}")
    basis = default_degree_basis(f, i)
    cat = catalecticant(f, 2 * i)
    rows: dict[Monomial, dict] = {}  # row monomial -> {column monomial: entry}
    for (r, col), value in cat.matrix.items():
        rows.setdefault(cat.row_monomials[r], {})[cat.col_monomials[col]] = value
    return [
        [Poly(f.nvars, rows.get(tuple(a + b for a, b in zip(bj, bk)), {}))
         for bk in basis]
        for bj in basis
    ]


def hessian_determinants_at(
    f: Poly,
    L: Poly,
    hessians: Sequence[Sequence[Sequence[Poly]]] | None = None,
) -> list[Fraction]:
    """Determinant of each higher Hessian (i = 0..floor(c/2)) evaluated at
    L's coefficient point."""
    c = _validate_slp_inputs(f, L)
    if hessians is None:
        hessians = [higher_hessian(f, i) for i in range(c // 2 + 1)]
    point = L.linear_coefficients()
    dets = []
    for matrix in hessians:
        evaluated = RatMatrix.from_rows(
            [[entry.evaluate(point) for entry in row] for row in matrix]
        )
        dets.append(mat_det(evaluated))
    return dets


def hessian_criterion_at(
    f: Poly,
    L: Poly,
    hessians: Sequence[Sequence[Sequence[Poly]]] | None = None,
) -> bool:
    """True iff every higher-Hessian determinant is nonzero at the point dual
    to L: an independent oracle for the slp_check verdict."""
    return all(hessian_determinants_at(f, L, hessians))


# ---------------------------------------------------------------------------
# theorem-level cross-validation


@dataclass(frozen=True)
class TheoremSample:
    coeffs: tuple[Fraction, ...]
    forced: bool
    slp_verdict: bool
    orbit_verdict: bool

    @property
    def agree(self) -> bool:
        return self.slp_verdict == self.orbit_verdict


@dataclass(frozen=True)
class TheoremSummary:
    """One TheoremSample per candidate: the forced ones first, then the
    seeded random ones."""

    samples: tuple[TheoremSample, ...]

    @property
    def mismatches(self) -> int:
        return sum(1 for smp in self.samples if not smp.agree)

    @property
    def counterexample(self) -> TheoremSample | None:
        for smp in self.samples:
            if not smp.agree:
                return smp
        return None


def random_linear_form(
    nvars: int, rng: random.Random, bound: int = 5
) -> Poly:
    """Random linear form with integer coefficients in [-bound, bound],
    redrawn on the (rare) all-zero outcome."""
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in range(nvars)]
        if any(coeffs):
            return Poly(
                nvars,
                {
                    tuple(1 if k == idx else 0 for k in range(nvars)): Fraction(v)
                    for idx, v in enumerate(coeffs)
                    if v
                },
            )


def verify_theorem(
    spec: FamilySpec,
    samples: int,
    seed: int,
    budget: int | None = None,
) -> TheoremSummary:
    """Check slp_check verdict == orbit_test on `samples` seeded random
    linear forms plus the deterministic rank-deficient candidates.  Any
    disagreement is a counterexample to the open-orbit characterization and
    shows up in the summary."""
    if samples < 0:
        raise OutOfRangeError(f"samples must be non-negative, got {samples}")
    ensure_within_budget(spec.nvars, spec.socle_degree, budget)
    f = make_invariant(spec)
    targets = hilbert_function(f).values
    rng = random.Random(seed)
    candidates: list[tuple[Poly, bool]] = [
        (L, True) for L in deficient_candidates(spec)
    ]
    candidates.append((canonical_lefschetz(spec), True))
    candidates.extend(
        (random_linear_form(spec.nvars, rng), False) for _ in range(samples)
    )
    rows = []
    for L, forced in candidates:
        report = slp_check(f, L, required=targets)
        rows.append(
            TheoremSample(
                coeffs=L.linear_coefficients(),
                forced=forced,
                slp_verdict=report.verdict,
                orbit_verdict=orbit_test(spec, L),
            )
        )
    return TheoremSummary(samples=tuple(rows))
