"""Strong Lefschetz verification.

The multiplication map by L^(c-2i) on the degree-i piece of the Gorenstein
quotient is bijective exactly when the matrix of m |-> (L^(c-2i) m)
contracted against F has rank h_i; both sides factor through the perfect
pairing, so comparing that rank with the degree-i catalecticant rank decides
each degree without ever constructing quotient bases.  No power of L and no
contraction by L is formed: by the higher-Hessian identity (Maeno-Watanabe,
Illinois J. Math. 53 (2009)), for k = c - 2i and l the coefficient vector
of L, (L^k m m')(F) = k! (m m' F)(l).  So slp_check evaluates the rows of
the degree-2i catalecticant of F at l, each row m + m' filling the cells
(m, m'), and ranks that matrix: it is Cat_i(L^k F) with column m' scaled by
m'!/k!.  Those rows, and which row sits at each cell, are a per-F table
(SlpTable) built once from F's terms and reused for every L.  For each L
the row values go mod PROBE_PRIME straight into exactmath's packed rank
kernel, with no RatMatrix and no block split; that lower bound settles the
rank only when it reaches the number of rows of N that are nonzero over
the integers, and otherwise N is built and ranked exactly by mat_rank.
The rank of N is at most h_i, so when N has more nonzero rows than that
(possible only where Ann(F)_i is not zero) the probe is skipped.

The higher-Hessian determinants evaluated at L's coefficient point give an
independent route to the same verdict.  The quotient basis b is the pivot
rows of the degree-i catalecticant, placed at their graded-lex positions;
the bases and F's terms cleared over one scale D (the lcm of its coefficient
denominators) are a per-F table (HessianTable).  For each L, one walk over
F's terms sums each row b_j b_k of the i-th higher Hessian at L's point as
an integer, the point cleared to integers, and only the determinant is
divided back.  That walk never reads SlpTable or a rank, so a fault in one
route cannot hide in the other.
verify_theorem cross-validates the slp_check verdict (not the Hessian one)
against open-orbit membership on seeded samples plus deterministic
rank-deficient candidates.  Everything here uses the plain apolarity
pairing; a weighted pairing is the plain one against F(w*x)
(polyring.scale_variables).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, perm, prod
from operator import add, getitem, sub

from .errors import NotLinearError, OutOfRangeError, VarMismatchError
from .exactmath import PROBE_PRIME, RatMatrix, _rank_mod_p, mat_det, mat_rank, pivot_rows
from .families import (
    FamilySpec,
    canonical_lefschetz,
    deficient_candidates,
    make_invariant,
    orbit_test,
)
from .macaulay import (
    _divisors,
    _entries,
    _key,
    _monomial,
    _placed_catalecticant,
    _require_homogeneous,
    _scale,
    _steps,
    ensure_within_budget,
    hilbert_function,
)
from .polyring import Monomial, Poly, monomials_of_degree


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


class SlpTable:
    """Per-F data of slp_check: the Hilbert function of F (`required`) and,
    for each degree i with c - 2i > 0, the rows of the degree-2i
    catalecticant of F as integer data from macaulay's entry enumerator: a
    term coeff*x^e and a degree-2i divisor x^mu give the entry
    coeff * prod perm(e_k, mu_k) at column x^(e - mu) of row mu, all
    scaled by one positive integer (the lcm of F's denominators).  Read as
    a polynomial, row mu is mu contracted against F.  Each degree also lays
    out its matrix N once: which row mu sits at each cell (m, m').  Build
    the table once per F and pass it to each slp_check of that F."""

    def __init__(self, f: Poly):
        self.f = f
        c = _require_homogeneous(f)
        self.required = hilbert_function(f).values
        base = c + 1
        self.degrees = [_CatRows(f.nvars, base, i) for i in range((c + 1) // 2)]
        for mu, deg, rest, entry in _entries(f, _steps(base, f.nvars), 0, c - 1):
            if deg % 2 == 0:
                self.degrees[deg // 2].add(mu, rest, entry)
        for d in self.degrees:
            d.lay_out()


class _CatRows:
    """The rows of Cat_2i(F) in an SlpTable, keyed as in macaulay: row mu
    is a list of (entry, residual id), and residual r is the column monomial
    x^(e - mu) as its nonzero (variable, exponent) pairs.

    The layout of N over the degree-i monomials m that meet some row
    (N is symmetric, so its nonzero rows and columns are the same
    monomials): `labels[r]` is the index of the r-th such m, and
    `cells[r]` = (columns, row ids) lists, for each m' with m + m' a row,
    the position of m' and the id of that row (its place in `terms`)."""

    def __init__(self, nvars: int, base: int, i: int):
        self.nvars, self.base, self.i = nvars, base, i
        self.rows: dict[int, list[tuple[int, int]]] = {}
        self.residual_id: dict[int, int] = {}
        self.residuals: list[tuple[tuple[int, int], ...]] = []

    def add(self, mu: int, rest: int, entry: int) -> None:
        r = self.residual_id.get(rest)
        if r is None:
            r = self.residual_id[rest] = len(self.residuals)
            expo = _monomial(rest, self.base, self.nvars)
            self.residuals.append(tuple((k, e) for k, e in enumerate(expo) if e))
        self.rows.setdefault(mu, []).append((entry, r))

    def lay_out(self) -> None:
        """Fix the cells of N, (m, mu - m) over the degree-i divisors m of
        each row mu; called once, after every row is added."""
        index = {  # degree-i monomial -> its row and column of N
            _key(m, self.base): k
            for k, m in enumerate(monomials_of_degree(self.nvars, self.i))
        }
        self.size = len(index)
        self.terms = list(self.rows.values())
        steps = _steps(self.base, self.nvars)
        by_row: dict[int, list[tuple[int, int]]] = {}
        for k, mu in enumerate(self.rows):
            expo = _monomial(mu, self.base, self.nvars)
            for m, _, _ in _divisors(expo, steps, self.i, self.i):
                by_row.setdefault(index[m], []).append((index[mu - m], k))
        self.labels = sorted(by_row)
        at = {m: r for r, m in enumerate(self.labels)}
        self.cells = [
            ([at[m2] for m2, _ in by_row[m]], [k for _, k in by_row[m]])
            for m in self.labels
        ]

    def values_at(self, powers: list[list[int]]) -> list[int]:
        """Each row's value at the point whose coordinate powers are
        `powers`, in `terms` order."""
        at = [prod(powers[k][e] for k, e in r) for r in self.residuals]
        return [sum(entry * at[r] for entry, r in row) for row in self.terms]

    def matrix_at(self, values: list[int]) -> RatMatrix:
        """N[m, m'] = the value of row m + m'."""
        labels, entries = self.labels, {}
        for m, (cols, ids) in zip(labels, self.cells):
            for c, k in zip(cols, ids):
                if values[k]:
                    entries[(m, labels[c])] = values[k]
        return RatMatrix._of(self.size, self.size, entries)

    def rank_at(self, powers: list[list[int]], most: int) -> int:
        """The exact rank of N at the point; `most` is h_i, which bounds it
        (N is Cat_i of L^k F, and Ann(F)_i annihilates L^k F).  When N has
        no more nonzero rows than that, counted exactly (a row can vanish
        mod p and not over the integers), its rank mod PROBE_PRIME, a lower
        bound taken from the values' residues on the fixed layout, settles
        the rank if it reaches that count.  Otherwise N is built and ranked
        by mat_rank."""
        values = self.values_at(powers)
        nonzero = sum(1 for _, ids in self.cells if any(map(values.__getitem__, ids)))
        if nonzero <= most:
            p = PROBE_PRIME
            residues = [v % p for v in values]
            rows = [(cols, map(residues.__getitem__, ids)) for cols, ids in self.cells]
            if _rank_mod_p(rows, len(rows), p) == nonzero:
                return nonzero
        return mat_rank(self.matrix_at(values))


def slp_check(f: Poly, L: Poly, table: SlpTable | None = None) -> SlpReport:
    """Exact per-degree report on x L^(c-2i); verdict is True iff L is a
    Lefschetz element of the quotient generated by F.  `table` is
    SlpTable(f) (default: built here); callers checking many candidates
    against one F should build it once.

    No power of L is formed.  Let l be L's coefficient vector cleared to a
    primitive integer vector (a positive multiple of L has the same ranks).
    For k = c - 2i, (L^k m m')(F) = k! (m m' F)(l), and m m' F is the row of
    the degree-2i catalecticant at m + m' read as a polynomial.  So the
    integer matrix N[m, m'] = (table row m + m')(l) over degree-i monomials
    is Cat_i(L^k F) with column m' scaled by m'!/k!, times the table's
    positive scale, and has the same rank.  The Hessian route never uses
    this table, so it stays an independent check.  For even c the middle
    row (k = 0, the identity) is h_i, taken from the table unranked."""
    c = _validate_slp_inputs(f, L)
    if table is None:
        table = SlpTable(f)
    elif table.f != f:
        raise ValueError("SlpTable was built for a different F")
    coeffs = L.linear_coefficients()
    mult = lcm(*(x.denominator for x in coeffs))
    point = [x.numerator * (mult // x.denominator) for x in coeffs]
    g = gcd(*point)
    powers = [[(x // g) ** e for e in range(c + 1)] for x in point]
    achieved = [d.rank_at(powers, h) for d, h in zip(table.degrees, table.required)]
    if c % 2 == 0:
        achieved.append(table.required[c // 2])
    rows = tuple(
        SlpRow(i=i, required=table.required[i], achieved=a)
        for i, a in enumerate(achieved)
    )
    return SlpReport(c=c, rows=rows)


# ---------------------------------------------------------------------------
# higher Hessians


def default_degree_basis(f: Poly, i: int) -> list[Monomial]:
    """Monomials whose catalecticant rows are pivot rows of the deterministic
    elimination: a canonical basis of the degree-i quotient piece.  The
    matrix is the public catalecticant's, rows and columns at the same
    graded-lex positions, but built from keys without its label lists."""
    c = _require_homogeneous(f)
    matrix, key_at = _placed_catalecticant(f, c, i)
    return [_monomial(key_at[r], c + 1, f.nvars) for r in pivot_rows(matrix)]


def _divisors_of_degree(expo: Monomial, i: int) -> list[tuple[Monomial, int]]:
    """(d, prod perm(e_k, d_k)) for every exponent tuple d <= expo
    (entrywise) of total degree i: the Hessian route's own divisor walk,
    kept apart from macaulay's keyed enumerator so that the route it checks
    shares no code with it.  Divisors grow one variable at a time, and a
    partial one that can no longer reach degree i is dropped."""
    parts = [((), 0, 1)]  # (partial divisor, its degree, its perm product)
    left = sum(expo)  # degree still available after this variable
    for e in expo:
        left -= e
        parts = [
            (d + (k,), deg + k, v * perm(e, k))
            for d, deg, v in parts
            for k in range(max(0, i - deg - left), min(e, i - deg) + 1)
        ]
    return [(d, v) for d, _, v in parts]


class HessianTable:
    """Per-F data of hessian_determinants_at: F's terms as integers over
    one scale D (the lcm of its coefficient denominators) and, for each
    i = 0..c//2, the basis b of default_degree_basis(f, i), the distinct
    monomials b_j * b_k each with its index, and the matrix of those indices
    (entries (j, k) and (k, j) share one).  Build the table once per F and
    pass it to each hessian_determinants_at of that F."""

    def __init__(self, f: Poly):
        self.f = f
        c = _require_homogeneous(f)
        self.scale = _scale(f)
        self.terms = [
            (expo, coeff.numerator * (self.scale // coeff.denominator))
            for expo, coeff in f.terms()
        ]
        self.degrees = []
        for i in range(c // 2 + 1):
            basis = default_degree_basis(f, i)
            index: dict[Monomial, int] = {}
            cells = [[0] * len(basis) for _ in basis]
            for j, bj in enumerate(basis):
                for k in range(j, len(basis)):
                    mu = tuple(map(add, bj, basis[k]))
                    cells[j][k] = cells[k][j] = index.setdefault(mu, len(index))
            self.degrees.append((basis, index, cells))


def hessian_determinants_at(
    f: Poly, L: Poly, table: HessianTable | None = None
) -> list[Fraction]:
    """Determinant of each higher Hessian (i = 0..floor(c/2)) evaluated at
    L's coefficient point l: entry (j, k) of the i-th is (b_j * b_k)
    contracted against F, over the basis b of default_degree_basis.  That
    contraction is the row of the degree-2i catalecticant at b_j * b_k.
    `table` is HessianTable(f) (default: built here); callers checking many
    L against one F should build it once.

    Everything is an integer: l is cleared to n = denom*l, and F to D*F.
    One walk over the degree-2i divisors of F's terms sums, for each row
    b_j*b_k, D * coeff * prod perm(e_k, d_k) * prod n_k^(e_k - d_k).  An
    entry is homogeneous of degree c - 2i, so that sum is D * denom^(c-2i)
    times its value at l, and the determinant of the integer matrix is
    divided exactly by (D * denom^(c-2i))^(h_i) at the end.  No Poly entry
    is built."""
    c = _validate_slp_inputs(f, L)
    if table is None:
        table = HessianTable(f)
    elif table.f != f:
        raise ValueError("HessianTable was built for a different F")
    coeffs = L.linear_coefficients()
    denom = lcm(*(x.denominator for x in coeffs))
    powers = [
        [(x.numerator * (denom // x.denominator)) ** e for e in range(c + 1)]
        for x in coeffs
    ]
    dets = []
    for i, (basis, index, cells) in enumerate(table.degrees):
        values = [0] * len(index)
        for expo, a in table.terms:
            for mu, p in _divisors_of_degree(expo, 2 * i):
                r = index.get(mu)
                if r is not None:
                    values[r] += a * p * prod(map(getitem, powers, map(sub, expo, mu)))
        h = len(basis)
        matrix = RatMatrix._of(h, h, {
            (j, k): values[r]
            for j, row in enumerate(cells)
            for k, r in enumerate(row)
            if values[r]
        })
        dets.append(mat_det(matrix) / (table.scale * denom ** (c - 2 * i)) ** h)
    return dets


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


def random_linear_form(nvars: int, rng: random.Random) -> Poly:
    """Random linear form with integer coefficients in [-5, 5], redrawn on
    the (rare) all-zero outcome."""
    while True:
        coeffs = [rng.randint(-5, 5) for _ in range(nvars)]
        if any(coeffs):
            return Poly._of(nvars, {
                (0,) * idx + (1,) + (0,) * (nvars - 1 - idx): Fraction(v)
                for idx, v in enumerate(coeffs)
                if v
            })


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
    ensure_within_budget(spec.nvars, spec.socle_degree, budget, samples)
    f = make_invariant(spec)
    table = SlpTable(f)
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
        report = slp_check(f, L, table)
        rows.append(
            TheoremSample(
                coeffs=L.linear_coefficients(),
                forced=forced,
                slp_verdict=report.verdict,
                orbit_verdict=orbit_test(spec, L),
            )
        )
    return TheoremSummary(samples=tuple(rows))
