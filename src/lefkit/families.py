"""The four implemented families of basic relative invariants.

Each family fixes a variable layout over matrix positions, the invariant
polynomial (generic determinant, symmetric determinant, Pfaffian, or sum of
squares), the embedding of linear forms back into matrices, and the
open-orbit membership test that characterizes Lefschetz elements.  Every
family but the quadric also supplies its symmetry (``family_symmetry``):
the torus weight of each variable and signed variable permutations that fix
the invariant up to sign, which ``macaulay.hilbert_function`` checks
exactly and then uses to rank one catalecticant block per orbit; quadrics
take the generic path.  ``predicted_hilbert`` gives the Hilbert function of
every family from its Jordan data (rank r and Peirce constant d) alone.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm

from .errors import (
    InvalidSpecError,
    InvariantError,
    NotLinearError,
    TooLargeError,
    VarMismatchError,
)
from .exactmath import RatMatrix
from .macaulay import HilbertFn, Symmetry, count_text, resolve_budget
from .polyring import Poly, poly_mul, poly_pow


class FamilyKind(enum.Enum):
    GENERIC_DET = "generic-det"
    SYM_DET = "sym-det"
    PFAFFIAN = "pfaffian"
    QUADRIC = "quadric"


def kind_from_name(name: str) -> FamilyKind:
    try:
        return FamilyKind(name)
    except ValueError:
        raise InvalidSpecError(f"unknown family {name!r}") from None


def _row(kind: FamilyKind, n: int, i: int) -> range:
    """The columns j of the variables x_ij in row i of the layout: the one
    definition of the family's positions and so of its variable count."""
    if kind is FamilyKind.GENERIC_DET:
        return range(1, n + 1)
    if kind is FamilyKind.SYM_DET:
        return range(i, n + 1)
    if kind is FamilyKind.PFAFFIAN:
        return range(i + 1, n + 1)
    return range(1)  # quadric: x_i sits at (i, 0)


@functools.cache
def _positions(kind: FamilyKind, n: int) -> tuple[tuple[int, int], ...]:
    """The matrix position of each variable, row-major in layout order."""
    return tuple((i, j) for i in range(1, n + 1) for j in _row(kind, n, i))


@functools.cache
def _position_index(kind: FamilyKind, n: int) -> dict[tuple[int, int], int]:
    return {pos: k for k, pos in enumerate(_positions(kind, n))}


@dataclass(frozen=True)
class FamilySpec:
    """Descriptor of one invariant family instance: kind, size, power."""

    kind: FamilyKind
    size: int
    power: int = 1

    def __post_init__(self):
        if self.size < 1:
            raise InvalidSpecError("size must be at least 1")
        if self.power < 1:
            raise InvalidSpecError("power must be at least 1")
        if self.kind is FamilyKind.PFAFFIAN and self.size % 2:
            raise InvalidSpecError("Pfaffian needs an even matrix size")

    @functools.cached_property
    def nvars(self) -> int:
        # counted row by row: the budget check, which needs this count,
        # must not build an n^2 position table first
        n = self.size
        return sum(len(_row(self.kind, n, i)) for i in range(1, n + 1))

    @property
    def layout(self) -> tuple[str, ...]:
        """Variable names in layout order (row-major over matrix positions)."""
        sep = "_" if self.size > 9 else ""
        if self.kind is FamilyKind.QUADRIC:
            return tuple(f"x{i}" for i, _ in _positions(self.kind, self.size))
        return tuple(
            f"x{i}{sep}{j}" for i, j in _positions(self.kind, self.size)
        )

    @property
    def socle_degree(self) -> int:
        return self.power * self.rank_r

    @property
    def rank_r(self) -> int:
        """The rank r of the family's Jordan algebra: the number of strongly
        orthogonal roots, and the degree of the basic invariant."""
        n = self.size
        return {
            FamilyKind.GENERIC_DET: n,
            FamilyKind.SYM_DET: n,
            FamilyKind.PFAFFIAN: n // 2,
            FamilyKind.QUADRIC: 2,
        }[self.kind]

    @property
    def d_value(self) -> Fraction:
        """The Peirce constant d of the family's Jordan algebra, which with
        rank_r fixes ``predicted_hilbert``."""
        return d_table(self.kind, self.nvars)

    def var_index(self, i: int, j: int = 0) -> int:
        return _position_index(self.kind, self.size)[(i, j)]

    def __str__(self) -> str:
        return f"{self.kind.value}(n={self.size}, s={self.power})"


def d_table(kind: FamilyKind, nvars: int) -> Fraction:
    """d per family: symmetric determinants 1, generic determinants 2,
    Pfaffians 4, quadrics dimension - 2 (2m-3 in 2m-1 variables, 2m-4 in
    2m-2)."""
    if kind is FamilyKind.SYM_DET:
        return Fraction(1)
    if kind is FamilyKind.GENERIC_DET:
        return Fraction(2)
    if kind is FamilyKind.PFAFFIAN:
        return Fraction(4)
    return Fraction(nvars - 2)  # quadric


def _rising(y: Fraction, n: int) -> Fraction:
    """The rising factorial (y)_n = y (y+1) ... (y+n-1)."""
    out = Fraction(1)
    for k in range(n):
        out *= y + k
    return out


def predicted_hilbert(spec: FamilySpec, budget: int | None = None) -> HilbertFn:
    """The Hilbert function of A_F for F = N^s, from the Jordan data (rank r,
    Peirce constant d) alone, with no catalecticant.

    h_k = sum of d_m over partitions m = (m_1 >= ... >= m_r >= 0) with
    m_1 <= s and |m| = k, where, with a = d/2, d_m is the product over
    i < j with x = m_i - m_j > 0 and t = j - i of
    (x + a t) (t+1)/t (a(t+1)+1)_{x-1} / (a(t-1)+1)_x  (Faraut-Koranyi,
    ch. XI).  This form has no division by a t, so it holds for the quadrics
    in 1 and 2 variables too (d = -1, 0).  Each (x, t) factor is tabled once
    per call.  The partition count C(r+s, r) is held to the
    cell budget (``macaulay.resolve_budget``)."""
    r, s = spec.rank_r, spec.power
    count = comb(r + s, r)
    limit = resolve_budget(budget)
    if count > limit:
        raise TooLargeError(
            f"{count_text(count)} partitions exceed the budget {count_text(limit)}"
        )
    a = spec.d_value / 2
    factor = {(0, t): Fraction(1) for t in range(1, r)}
    for t in range(1, r):
        for x in range(1, s + 1):
            factor[x, t] = (
                (x + a * t) * Fraction(t + 1, t) * _rising(a * (t + 1) + 1, x - 1)
                / _rising(a * (t - 1) + 1, x)
            )
    pairs = [(i, j) for j in range(r) for i in range(j)]
    values = [Fraction(0)] * (r * s + 1)
    # weakly decreasing tuples drawn from s, s-1, ..., 0
    for m in combinations_with_replacement(range(s, -1, -1), r):
        dm = Fraction(1)
        for i, j in pairs:
            dm *= factor[m[i] - m[j], j - i]
        values[sum(m)] += dm
    if any(v.denominator != 1 or v < 0 for v in values):
        raise InvariantError(f"predicted Hilbert values {values} are not counts")
    return HilbertFn(r * s, tuple(int(v) for v in values))


def _sym_var(spec: FamilySpec, i: int, j: int) -> Poly:
    if i > j:
        i, j = j, i
    return Poly.variable(spec.nvars, spec.var_index(i, j))


def _det_of(matrix: list[list[Poly]], nvars: int) -> Poly:
    """Cofactor expansion along the first row."""
    size = len(matrix)
    if size == 0:
        return Poly.one(nvars)
    if size == 1:
        return matrix[0][0]
    total = Poly.zero(nvars)
    for j, top in enumerate(matrix[0]):
        if top.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        cofactor = poly_mul(top, _det_of(minor, nvars))
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def generic_matrix(spec: FamilySpec) -> list[list[Poly]]:
    """The generic matrix of the family's layout, entries as Poly variables
    (symmetric or alternating as appropriate)."""
    n = spec.size
    if spec.kind is FamilyKind.GENERIC_DET:
        return [
            [Poly.variable(spec.nvars, spec.var_index(i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    if spec.kind is FamilyKind.SYM_DET:
        return [[_sym_var(spec, i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    if spec.kind is FamilyKind.PFAFFIAN:
        rows = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                if i == j:
                    row.append(Poly.zero(spec.nvars))
                elif i < j:
                    row.append(Poly.variable(spec.nvars, spec.var_index(i, j)))
                else:
                    row.append(-Poly.variable(spec.nvars, spec.var_index(j, i)))
            rows.append(row)
        return rows
    raise InvalidSpecError("no generic matrix for this family")


def pfaffian_poly(n: int) -> Poly:
    """Pfaffian of the generic alternating n x n matrix (n even) by recursive
    first-row expansion; satisfies Pf(X)^2 = det(X)."""
    if n < 2 or n % 2:
        raise InvalidSpecError("Pfaffian needs an even size of at least 2")
    spec = FamilySpec(FamilyKind.PFAFFIAN, n)

    def expand(indices: tuple[int, ...]) -> Poly:
        if not indices:
            return Poly.one(spec.nvars)
        first, rest = indices[0], indices[1:]
        total = Poly.zero(spec.nvars)
        for pos, j in enumerate(rest, start=2):
            remaining = tuple(k for k in rest if k != j)
            term = poly_mul(
                Poly.variable(spec.nvars, spec.var_index(first, j)),
                expand(remaining),
            )
            total = total + (term if pos % 2 == 0 else -term)
        return total

    return expand(tuple(range(1, n + 1)))


def basic_invariant(spec: FamilySpec) -> Poly:
    """The degree-c0 basic relative invariant (power ignored)."""
    if spec.kind is FamilyKind.QUADRIC:
        total = Poly.zero(spec.nvars)
        for k in range(spec.nvars):
            v = Poly.variable(spec.nvars, k)
            total = total + poly_mul(v, v)
        return total
    if spec.kind is FamilyKind.PFAFFIAN:
        return pfaffian_poly(spec.size)
    return _det_of(generic_matrix(spec), spec.nvars)


def make_invariant(spec: FamilySpec) -> Poly:
    """F = (basic invariant)^s, homogeneous of degree s * c0."""
    return poly_pow(basic_invariant(spec), spec.power)


def family_symmetry(spec: FamilySpec) -> Symmetry | None:
    """The torus weights of the variables and signed variable permutations
    that fix F up to sign, for ``hilbert_function``; None for quadrics.

    x_ij has weight e_i + e_j (for generic-det, (e_i, e'_j)).  Index
    permutations p of 1..n are generated by the transposition (1 2) and the
    n-cycle, and x_ij goes to x_p(i)p(j): on rows and on columns apart for
    generic-det, which adds the transpose x_ij -> x_ji; with the sign -1
    for the Pfaffian when p flips the pair (x_ji = -x_ij)."""
    if spec.kind is FamilyKind.QUADRIC:
        return None
    n = spec.size
    generic = spec.kind is FamilyKind.GENERIC_DET
    positions = _positions(spec.kind, n)
    index = _position_index(spec.kind, n)
    offset = n if generic else 0
    weights = []
    for i, j in positions:
        w = [0] * (n + offset)
        w[i - 1] += 1
        w[offset + j - 1] += 1
        weights.append(tuple(w))
    identity = {i: i for i in range(1, n + 1)}
    perms = [] if n < 2 else [
        {**identity, 1: 2, 2: 1},
        {i: i % n + 1 for i in identity},
    ]
    if generic:
        moves = [lambda i, j, p=p: (p[i], j) for p in perms]
        moves += [lambda i, j, p=p: (i, p[j]) for p in perms]
        moves.append(lambda i, j: (j, i))
    else:
        moves = [lambda i, j, p=p: (p[i], p[j]) for p in perms]
    flip = -1 if spec.kind is FamilyKind.PFAFFIAN else 1
    generators = []
    for move in moves:
        gen = []
        for i, j in positions:
            a, b = move(i, j)
            if not generic and a > b:
                gen.append((index[(b, a)], flip))
            else:
                gen.append((index[(a, b)], 1))
        generators.append(tuple(gen))
    return Symmetry(tuple(weights), tuple(generators))


def _linear_coeffs(spec: FamilySpec, L: Poly) -> tuple[Fraction, ...]:
    if L.nvars != spec.nvars:
        raise VarMismatchError(
            f"form has {L.nvars} variables, family layout has {spec.nvars}"
        )
    if L.is_zero() or L.homogeneous_degree() != 1:
        raise NotLinearError("Lefschetz candidates must be nonzero linear forms")
    return L.linear_coefficients()


def _integer_point(coeffs) -> list[int]:
    """Rational coefficients times the lcm of their denominators."""
    scale = lcm(*(a.denominator for a in coeffs))
    return [a.numerator * (scale // a.denominator) for a in coeffs]


def _matrix_entries(spec: FamilySpec, coeffs) -> dict[tuple[int, int], Fraction | int]:
    """The nonzero entries, by 0-based (row, column), of the matrix whose
    layout coefficients are ``coeffs``: symmetric layouts place the
    coefficient of x_ij at both (i,j) and (j,i); alternating layouts add
    the sign."""
    entries = {}
    for k, (i, j) in enumerate(_positions(spec.kind, spec.size)):
        a = coeffs[k]
        if not a:
            continue
        entries[(i - 1, j - 1)] = a
        if spec.kind is FamilyKind.SYM_DET and i != j:
            entries[(j - 1, i - 1)] = a
        elif spec.kind is FamilyKind.PFAFFIAN:
            entries[(j - 1, i - 1)] = -a
    return entries


def coeffs_to_matrix(spec: FamilySpec, L: Poly):
    """Fill the matrix (or coordinate vector, for quadrics) whose entries are
    L's coefficients under the family layout (``_matrix_entries``)."""
    coeffs = _linear_coeffs(spec, L)
    if spec.kind is FamilyKind.QUADRIC:
        return coeffs
    return RatMatrix(spec.size, spec.size, _matrix_entries(spec, coeffs))


def _nonsingular(rows: list[list[int]]) -> bool:
    """det != 0 for a square integer matrix (its rows are overwritten), by
    dense fraction-free (Bareiss) elimination: after step k every entry is
    a (k+1)-minor, so each division by the previous pivot is exact."""
    prev = 1
    for k in range(len(rows)):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            return False
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        p = top[k]
        for r in range(k + 1, len(rows)):
            row, a = rows[r], rows[r][k]
            rows[r] = [0] * (k + 1) + [
                (p * row[j] - a * top[j]) // prev for j in range(k + 1, len(row))
            ]
        prev = p
    return True


def _in_open_orbit(spec: FamilySpec, point: list[int]) -> bool:
    """orbit_test on the integer coefficient vector `point` of L."""
    if spec.kind is FamilyKind.QUADRIC:
        return bool(sum(a * a for a in point))
    rows = [[0] * spec.size for _ in range(spec.size)]
    for (i, j), a in _matrix_entries(spec, point).items():
        rows[i][j] = a
    return _nonsingular(rows)


def orbit_test(spec: FamilySpec, L: Poly) -> bool:
    """Is the matrix/vector of L in the open orbit?

    Nonzero determinant of the matrix, cleared to integers, for the
    determinant families and the alternating one (nonzero Pfaffian), and
    nonzero sum of squared coefficients for quadrics.  Over the rationals
    every nonzero vector is non-isotropic, so the quadric test never sees
    the complex isotropic locus.  The determinant is this module's own
    elimination, not exactmath's rank kernel, which the SLP verdict this
    test cross-checks runs on.  Decided by _in_open_orbit on L's point
    cleared to integers, a positive multiple of it.
    """
    return _in_open_orbit(spec, _integer_point(_linear_coeffs(spec, L)))


def _canonical_pairs(spec: FamilySpec) -> list[tuple[int, int]]:
    """Matrix positions of the canonical element's unit entries: the
    diagonal, or the symplectic pairs (1,2), (3,4), ... for Pfaffians."""
    if spec.kind is FamilyKind.PFAFFIAN:
        return [(2 * t - 1, 2 * t) for t in range(1, spec.size // 2 + 1)]
    return [(i, i) for i in range(1, spec.size + 1)]


def canonical_lefschetz(spec: FamilySpec) -> Poly:
    """The family's standard open-orbit element: the trace form for the
    determinant families, the standard symplectic form for Pfaffians, and
    the first coordinate for quadrics."""
    if spec.kind is FamilyKind.QUADRIC:
        return Poly.variable(spec.nvars, 0)
    total = Poly.zero(spec.nvars)
    for i, j in _canonical_pairs(spec):
        total = total + Poly.variable(spec.nvars, spec.var_index(i, j))
    return total


def deficient_candidates(spec: FamilySpec) -> list[Poly]:
    """Deterministic boundary candidates of every deficient rank, built by
    zeroing trailing blocks of the canonical element.  Quadrics have none:
    rational nonzero vectors are never isotropic."""
    if spec.kind is FamilyKind.QUADRIC:
        return []
    pairs = _canonical_pairs(spec)
    out = []
    for keep in range(1, len(pairs)):
        total = Poly.zero(spec.nvars)
        for i, j in pairs[:keep]:
            total = total + Poly.variable(spec.nvars, spec.var_index(i, j))
        out.append(total)
    return out
