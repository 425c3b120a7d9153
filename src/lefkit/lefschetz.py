"""Strong Lefschetz verification.

The multiplication map by L^(c-2i) on the degree-i piece of the Gorenstein
quotient is bijective exactly when the matrix of m |-> (L^(c-2i) m)
contracted against F has rank h_i; both sides factor through the perfect
pairing, so comparing that rank with the degree-i catalecticant rank decides
each degree.  No power of L and no contraction by L is formed: by the
higher-Hessian identity (Maeno-Watanabe, Illinois J. Math. 53 (2009)), for
k = c - 2i and l the coefficient vector of L,
(L^k m m')(F) = k! (m m' F)(l).  So slp_check evaluates the rows of
the degree-2i catalecticant of F at l, each row m + m' filling the cells
(m, m'), and ranks that matrix N: it is Cat_i(L^k F) with column m' scaled
by m'!/k!.  Ann(F)_i annihilates L^k F too (contraction commutes), so it
lies in the radical of the form (m, m') |-> (L^k m m')(F), and N
restricted to the rows and columns of a monomial basis b_i of
R_i / Ann(F)_i has the same rank: an h_i x h_i matrix, nonsingular exactly
when L is Lefschetz in degree i (it is the higher Hessian at l in the
basis b_i).  b_i is the pivot rows of Cat_i, and its size must be h_i.
The rows of Cat_2i at the products b_j b_k, and which row sits at each
cell (j, k), are a per-F table (SlpTable) built once from F's terms and
reused for every L.  For each L the row values pick the rank path
(_Restricted.rank_at): a 1 x 1 matrix is its value's being nonzero; a
sparse one (fewer than half of the rows nonzero) is built and ranked
exactly by mat_rank, whose block split keeps it in small blocks; a dense
one goes mod PROBE_PRIME straight into exactmath's packed rank kernel,
with no RatMatrix and no block split, and the probe's rank, a lower bound,
settles the rank when it reaches h_i; otherwise mat_rank decides.

The higher-Hessian determinants evaluated at L's coefficient point give an
independent route to the same verdict.  The quotient basis b is the pivot
rows of the degree-i catalecticant, rows at their graded-lex positions;
one placed build gives the catalecticant of every degree i = 0..c//2.  The
bases, as macaulay's additive monomial keys (so the key of b_j b_k is a
sum), and F's terms cleared over one scale D (the lcm of its coefficient
denominators) are a per-F table (HessianTable); it holds nothing per
product b_j b_k.  For each L, the route's own divisor walk,
once over each of F's terms, sums every divisor's value at L's point (the
point cleared to integers) into one map keyed by the divisor, and each
cell (j, k) of the higher Hessian of each degree looks up the key of
b_j b_k there, as an integer; only the determinant is divided back.
That walk never reads SlpTable, macaulay's enumerator or a rank, so a fault
in one route cannot hide in the other.
verify_theorem cross-validates the slp_check verdict (not the Hessian one)
against open-orbit membership on seeded samples plus deterministic
rank-deficient candidates, each carried as one integer coefficient vector
through the per-point code that slp_check and orbit_test wrap
(SlpTable.verdict_at, families._in_open_orbit).  Everything here uses the
plain apolarity pairing; a weighted pairing is the plain one against
F(w*x) (polyring.scale_variables).
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, perm, prod
from operator import mul

from .errors import InvariantError, OutOfRangeError
from .exactmath import (
    PROBE_PRIME,
    RatMatrix,
    _rank_mod_p,
    _Slots,
    mat_det,
    mat_rank,
    pivot_rows,
)
from .families import (
    FamilySpec,
    _in_open_orbit,
    canonical_lefschetz,
    deficient_candidates,
    family_symmetry,
    make_invariant,
)
from .macaulay import (
    Symmetry,
    _divisors,
    _integer_terms,
    _monomial,
    _placed_catalecticant,
    _require_homogeneous,
    _steps,
    ensure_within_budget,
    hilbert_function,
)
from .polyring import Monomial, Poly, _clear_denominators, _linear_form_coeffs


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


class SlpTable:
    """Per-F data of slp_check: the Hilbert function of F (`required`,
    from ``hilbert_function(f, symmetry)``; pass F's family symmetry, when
    it has one, to rank one weight block per orbit) and, for each degree i
    with c - 2i > 0, the matrix N restricted to a basis of the quotient
    (_Restricted).  One walk of macaulay's entry enumerator (each of F's
    integer terms, ``_integer_terms``, and its divisors, ``_divisors``)
    gives the catalecticants as integer data: a term coeff*x^e and a
    divisor x^mu give the entry coeff * prod perm(e_k, mu_k) at column
    x^(e - mu) of row mu, all scaled by one positive integer (the lcm of F's
    denominators).  Read as a polynomial, row mu is mu contracted against
    F.  The basis b_i is the pivot rows of Cat_i; its size must be h_i,
    else InvariantError.  Build the table once per F and pass it to each
    slp_check of that F; ``ranks_at`` and ``verdict_at`` check one L given
    as an integer point."""

    def __init__(self, f: Poly, symmetry: Symmetry | None = None):
        self.f = f
        self.c = c = _require_homogeneous(f)
        self.required = hilbert_function(f, symmetry).values
        base, half = c + 1, (c + 1) // 2
        # rows[deg]: row key mu of Cat_deg -> its (entry, column key) pairs,
        # for the degrees of a basis (deg < c/2) and of N (deg even)
        rows: list[dict[int, list[tuple[int, int]]]] = [{} for _ in range(c + 1)]
        steps = _steps(base, f.nvars)
        for expo, whole, value in _integer_terms(f, steps)[1]:
            for mu, deg, entry in _divisors(expo, steps, 0, c - 1, value):
                if deg < half or deg % 2 == 0:
                    rows[deg].setdefault(mu, []).append((entry, whole - mu))
        self.degrees = [
            _Restricted(rows[i], rows[2 * i], self.required[i], i, base, f.nvars)
            for i in range(half)
        ]

    def _powers(self, point: list[int]) -> list[int]:
        # n_k^e at k * (c + 1) + e, for the point n = point / gcd(point)
        g, exponents = gcd(*point), range(self.c + 1)
        return [(x // g) ** e for x in point for e in exponents]

    def ranks_at(self, point: list[int]) -> list[int]:
        """The rank of N at each degree i = 0..c//2 for the L whose
        coefficient vector is the nonzero integer `point`, divided here by
        its gcd; the middle degree of an even c (k = 0) is h_i, unranked."""
        c, powers = self.c, self._powers(point)
        achieved = [d.rank_at(powers) for d in self.degrees]
        if c % 2 == 0:
            achieved.append(self.required[c // 2])
        return achieved

    def verdict_at(self, point: list[int]) -> bool:
        """Is the L of `point` a Lefschetz element: rank h_i in every degree?
        The degrees are ranked in order, up to the first that falls short."""
        powers = self._powers(point)
        return all(d.rank_at(powers) == h for d, h in zip(self.degrees, self.required))


class _Restricted:
    """N of degree i restricted to b_i x b_i, in an SlpTable.  `basis`
    holds the keys of b_i (additive: key(m m') = key(m) + key(m')), the
    pivot rows of Cat_i.  Only the rows of Cat_2i at the keys b_j + b_k
    are kept: kept row t is `terms[t]`, its entries and their residual
    ids, and residual r is the column monomial x^(e - mu) as the flat
    power index k * base + e_k of each variable k with e_k > 0; `terms[0]`
    has no entries, so its value is always 0.  `layout[j]` is an array of
    h_i ids, one per column k: the id t of the kept row at b_j + b_k, or 0
    where b_j + b_k is no row of Cat_2i; it is filled in place, pair by
    pair.  `slots` is the probe's slot layout (exactmath._Slots) for the
    prime of the last ``rank_at``, made again when the prime changes, so
    each call gathers its rows with no per-call position list."""

    def __init__(self, cat, double, h: int, i: int, base: int, nvars: int):
        keys, col_at, entries = list(cat), {}, {}
        for r, row in enumerate(cat.values()):
            for entry, rest in row:
                entries[(r, col_at.setdefault(rest, len(col_at)))] = entry
        matrix = RatMatrix._of(len(keys), len(col_at), entries)
        self.basis = [keys[r] for r in pivot_rows(matrix)]
        if len(self.basis) != h:
            raise InvariantError(
                f"the degree-{i} quotient basis has {len(self.basis)} elements, "
                f"h_{i} = {h}"
            )
        basis, row_id, self.slots = self.basis, {}, None
        self.layout = layout = [array("I", [0]) * h for _ in range(h)]
        for j, bj in enumerate(basis):
            for k in [k for k in range(j, h) if bj + basis[k] in double]:
                layout[j][k] = layout[k][j] = row_id.setdefault(
                    bj + basis[k], len(row_id) + 1)
        residual_id: dict[int, int] = {}
        self.residuals: list[tuple[int, ...]] = []
        self.terms: list[tuple[list[int], list[int]]] = [([], [])]
        for key in row_id:
            coeffs, ids = [], []
            for entry, rest in double[key]:
                r = residual_id.get(rest)
                if r is None:
                    r = residual_id[rest] = len(self.residuals)
                    expo = _monomial(rest, base, nvars)
                    self.residuals.append(
                        tuple(k * base + e for k, e in enumerate(expo) if e))
                coeffs.append(entry)
                ids.append(r)
            self.terms.append((coeffs, ids))

    def values_at(self, powers: list[int]) -> list[int]:
        """Each kept row's value at the point whose coordinate powers are
        `powers` (n_k^e at k * base + e), in `terms` order: 0 at id 0."""
        get = powers.__getitem__
        at = [prod(map(get, r)) for r in self.residuals]
        return [sum(map(mul, coeffs, map(at.__getitem__, ids)))
                for coeffs, ids in self.terms]

    def rank_at(self, powers: list[int]) -> int:
        """The exact rank of the h_i x h_i matrix at the point, by the path
        its values pick:
        - h_i = 1 (i = 0, N = [D F(l)]): 1 exactly when that integer is
          nonzero;
        - fewer than half of the kept rows nonzero (a structured L): the
          matrix, built from `layout`, ranked by mat_rank, exact by its
          block split and fraction-free elimination;
        - otherwise the rank mod PROBE_PRIME of the rows gathered from
          `layout`, each the slot bytes of its cells joined into one int:
          a lower bound, as a minor nonzero mod p is nonzero, so reaching
          h_i settles the rank; a probe short of h_i goes to mat_rank."""
        values, h = self.values_at(powers), len(self.basis)
        if h == 1:
            return 1 if values[self.layout[0][0]] else 0
        kept, nonzero = len(values) - 1, len(values) - values.count(0)
        if 2 * nonzero >= kept:
            slots, p = self.slots, PROBE_PRIME
            if slots is None or slots.prime != p:
                slots = self.slots = _Slots(p, h, h)
            slot = slots.encode(values)
            rows = (int.from_bytes(b"".join(map(slot.__getitem__, ids)), "little")
                    for ids in self.layout)
            if _rank_mod_p(rows, slots) == h:
                return h
        get = values.__getitem__
        return mat_rank(RatMatrix._of(h, h, {
            (j, k): v
            for j, ids in enumerate(self.layout)
            for k, v in enumerate(map(get, ids))
            if v
        }))


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
    positive scale, and has the same rank.  Ann(F)_i lies in the radical
    of that form, so N restricted to the table's basis b_i of the quotient
    has the same rank again, at most h_i; that h_i x h_i matrix is what is
    ranked.  The Hessian route never uses this table, so it stays an
    independent check.  For even c the middle row (k = 0, the identity) is
    h_i, taken from the table unranked."""
    if table is None or table.f is not f:  # a table's F was checked at build
        _require_homogeneous(f)
    _, point = _clear_denominators(_linear_form_coeffs(L, f.nvars))
    if table is None:
        table = SlpTable(f)
    elif table.f != f:
        raise ValueError("SlpTable was built for a different F")
    achieved = table.ranks_at(point)
    return SlpReport(c=table.c, rows=tuple(
        SlpRow(i=i, required=table.required[i], achieved=a)
        for i, a in enumerate(achieved)
    ))


# ---------------------------------------------------------------------------
# higher Hessians


def default_degree_basis(f: Poly, i: int) -> list[Monomial]:
    """Monomials whose catalecticant rows are pivot rows of the deterministic
    elimination: a canonical basis of the degree-i quotient piece.  The
    matrix is the public catalecticant's, rows at the same graded-lex
    positions and its nonzero columns in the same order, but built from
    monomial keys without its label lists."""
    c = _require_homogeneous(f)
    [(matrix, key_at, _)] = _placed_catalecticant(f, c, i, i)
    return [_monomial(key_at[r], c + 1, f.nvars) for r in pivot_rows(matrix)]


def _point_factors(point: list[int], c: int) -> list[list[list[int]]]:
    """factors[k][e][d] = perm(e, d) * n_k^(e - d) for the integer point n,
    0 <= d <= e <= c: what variable k contributes to a divisor x^d of x^e."""
    factors = []
    for n in point:
        powers = [n**e for e in range(c + 1)]
        factors.append([
            [perm(e, d) * powers[e - d] for d in range(e + 1)] for e in range(c + 1)
        ])
    return factors


def _point_divisors(
    term: tuple[tuple[int, int, int], ...], factors: list[list[list[int]]]
) -> list[tuple[int, int]]:
    """(key of d, its value) for every divisor x^d of x^e, of every degree,
    whose value prod_k factors[k][e_k][d_k] = prod_k perm(e_k, d_k) *
    n_k^(e_k - d_k) (see _point_factors) is nonzero.  `term` lists the
    nonzero exponents of x^e as (e_k, key step of variable k, k).  The
    Hessian route's own divisor walk, kept apart from macaulay's enumerator
    so that the route it checks shares no code with it.  Divisors grow one
    variable at a time, multiplying in that variable's factor; a partial
    one whose value is zero (d_k < e_k where n_k = 0) is dropped."""
    parts = [(0, 1)]  # (key of the partial divisor, its value)
    for e, step, k in term:
        row = factors[k][e]
        parts = [
            (key + d * step, v * row[d])
            for key, v in parts
            for d in range(e + 1)
            if row[d]
        ]
    return parts


class HessianTable:
    """Per-F data of hessian_determinants_at, with monomials as macaulay's
    one key order (``_steps(c + 1, nvars)``, the placed build's keys, so
    the key of b_j * b_k is key(b_j) + key(b_k)): F's terms as integers
    over one scale D (the lcm of its coefficient denominators), each with
    its nonzero (exponent, key step, variable) triples, and, for each
    i = 0..c//2, the keys of the basis b of default_degree_basis(f, i).
    Nothing is kept per product b_j * b_k: each L looks its keys up in its
    own map of divisor values.
    The catalecticants of every degree come from one placed build, each
    basis is its pivot rows.  Build the table once per F and pass it to
    each hessian_determinants_at of that F."""

    def __init__(self, f: Poly):
        self.f = f
        c = _require_homogeneous(f)
        self.scale, values = _clear_denominators([v for _, v in f.terms()])
        steps = _steps(c + 1, f.nvars)
        self.terms = [
            (value, tuple((e, steps[k], k) for k, e in enumerate(expo) if e))
            for (expo, _), value in zip(f.terms(), values)
        ]
        self.degrees = [
            [key_at[r] for r in pivot_rows(matrix)]
            for matrix, key_at, _ in _placed_catalecticant(f, c, 0, c // 2)
        ]


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
    One walk over the divisors of each of F's terms, for every degree at
    once, yields each divisor's key with prod perm(e_k, d_k) *
    n_k^(e_k - d_k), multiplied in one variable at a time from a per-L
    table of those factors, and D * coeff times it is summed into one map
    from divisor key to value.  Then each pair j <= k of each basis looks
    up the key of b_j * b_k in that map, and a nonzero value fills cells
    (j, k) and (k, j); a key no term reaches is a zero cell.  An entry of
    the i-th Hessian is homogeneous of degree c - 2i, so that sum is
    D * denom^(c-2i) times its value at l, and the determinant of the
    integer matrix is divided exactly by (D * denom^(c-2i))^(h_i) at the
    end.  No Poly entry is built."""
    c = _require_homogeneous(f)
    denom, point = _clear_denominators(_linear_form_coeffs(L, f.nvars))
    if table is None:
        table = HessianTable(f)
    elif table.f != f:
        raise ValueError("HessianTable was built for a different F")
    factors = _point_factors(point, c)
    at: defaultdict[int, int] = defaultdict(int)  # divisor key -> its value
    for a, term in table.terms:
        for key, v in _point_divisors(term, factors):
            at[key] += a * v
    get, dets = at.get, []
    for i, basis in enumerate(table.degrees):
        h = len(basis)
        cells = {}
        for j, bj in enumerate(basis):
            for k, v in enumerate([get(bj + bk) for bk in basis[j:]], j):
                if v:
                    cells[j, k] = cells[k, j] = v
        matrix = RatMatrix._of(h, h, cells)
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


def _random_point(nvars: int, rng: random.Random) -> list[int]:
    """random_linear_form's coefficients, as integers."""
    while True:
        point = [rng.randint(-5, 5) for _ in range(nvars)]
        if any(point):
            return point


def random_linear_form(nvars: int, rng: random.Random) -> Poly:
    """Random linear form with integer coefficients in [-5, 5], redrawn on
    the (rare) all-zero outcome."""
    return Poly._of(nvars, {
        (0,) * idx + (1,) + (0,) * (nvars - 1 - idx): Fraction(v)
        for idx, v in enumerate(_random_point(nvars, rng))
        if v
    })


def verify_theorem(
    spec: FamilySpec,
    samples: int,
    seed: int,
    budget: int | None = None,
) -> TheoremSummary:
    """Check the slp_check verdict == orbit_test on `samples` seeded random
    linear forms (random_linear_form's draws) plus the deterministic
    rank-deficient candidates and the canonical one.  Any disagreement is
    a counterexample to the open-orbit characterization and shows up in
    the summary.  Each candidate is one integer coefficient vector from
    draw to verdict: the two verdicts are SlpTable.verdict_at and
    families._in_open_orbit, the per-point code behind slp_check and
    orbit_test, and no Poly is built for a drawn sample."""
    if samples < 0:
        raise OutOfRangeError(f"samples must be non-negative, got {samples}")
    ensure_within_budget(spec.nvars, spec.socle_degree, budget, samples)
    f = make_invariant(spec)
    table = SlpTable(f, family_symmetry(spec))
    forced = [
        L.linear_coefficients()
        for L in [*deficient_candidates(spec), canonical_lefschetz(spec)]
    ]
    rng = random.Random(seed)
    drawn = [_random_point(spec.nvars, rng) for _ in range(samples)]
    candidates = [(coeffs, _clear_denominators(coeffs)[1], True) for coeffs in forced]
    candidates += [(tuple(map(Fraction, point)), point, False) for point in drawn]
    return TheoremSummary(samples=tuple(
        TheoremSample(
            coeffs=coeffs,
            forced=is_forced,
            slp_verdict=table.verdict_at(point),
            orbit_verdict=_in_open_orbit(spec, point),
        )
        for coeffs, point, is_forced in candidates
    ))
