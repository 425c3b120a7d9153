"""The four implemented families of basic relative invariants.

Each ``FamilyKind`` has one ``_Family`` record in the table ``_FAMILIES``,
and no function here tests the kind.  The record's data: the columns of
each layout row (so the variables x_ij and their count), how a position
fills the matrix (``mirror``), the Jordan data r and d behind
``predicted_hilbert``, and the unit positions of the canonical open-orbit
element, whose proper prefixes are the deficient candidates.  Its
behaviour: the basic-invariant builder, the open-orbit test on an integer
point that characterizes Lefschetz elements, and the symmetry
(``family_symmetry``: torus weights and signed variable permutations fixing
F up to sign, which ``macaulay.hilbert_function`` checks exactly and uses to
rank one catalecticant block per orbit) or None for the generic path.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .errors import InvalidSpecError, InvariantError, OutOfRangeError, TooLargeError
from .exactmath import RatMatrix
from .macaulay import HilbertFn, Symmetry, count_text, resolve_budget
from .polyring import (
    Poly,
    _clear_denominators,
    _linear_form_coeffs,
    poly_mul,
    poly_pow,
)


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


@dataclass(frozen=True)
class _Family:
    """What differs between family kinds; the module docstring says how."""

    row: Callable[[int, int], range]  # (n, i) -> columns j of x_ij in row i
    # x_ij also fills (j, i) times this sign (0: it does not); None: the
    # family has no matrix, and x_i sits at (i, 0)
    mirror: int | None
    rank: Callable[[int], int]  # r from n
    d: Callable[[int], int]  # d from nvars
    units: Callable[[int], list[tuple[int, int]]]  # canonical unit positions
    invariant: Callable[[FamilySpec], Poly]  # the basic invariant
    in_orbit: Callable[[FamilySpec, list[int]], bool]  # on L's integer point
    symmetry: Callable[[FamilySpec], Symmetry] | None
    even: bool = False  # the size must be even


@functools.cache
def _positions(kind: FamilyKind, n: int) -> tuple[tuple[int, int], ...]:
    """The matrix position of each variable, row-major in layout order."""
    row = _FAMILIES[kind].row
    return tuple((i, j) for i in range(1, n + 1) for j in row(n, i))


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
        if not isinstance(self.kind, FamilyKind):
            raise InvalidSpecError(f"{self.kind!r} is not a FamilyKind")
        for name in ("size", "power"):
            value = getattr(self, name)
            if type(value) is not int:  # bool, float and str included
                raise InvalidSpecError(f"{name} must be an int, got {value!r}")
        if self.size < 1:
            raise InvalidSpecError("size must be at least 1")
        if self.power < 1:
            raise InvalidSpecError("power must be at least 1")
        if self._family.even and self.size % 2:
            raise InvalidSpecError(f"{self.kind.value} needs an even matrix size")

    @property
    def _family(self) -> _Family:
        return _FAMILIES[self.kind]

    @functools.cached_property
    def nvars(self) -> int:
        # counted row by row: the budget check, which needs this count,
        # must not build an n^2 position table first
        n, row = self.size, self._family.row
        return sum(len(row(n, i)) for i in range(1, n + 1))

    @property
    def layout(self) -> tuple[str, ...]:
        """Variable names in layout order (row-major over matrix positions);
        a coordinate at (i, 0) is named x_i."""
        sep = "_" if self.size > 9 else ""
        return tuple(
            f"x{i}{sep}{j}" if j else f"x{i}"
            for i, j in _positions(self.kind, self.size)
        )

    @property
    def socle_degree(self) -> int:
        return self.power * self.rank_r

    @property
    def rank_r(self) -> int:
        """The rank r of the family's Jordan algebra: the number of strongly
        orthogonal roots, and the degree of the basic invariant."""
        return self._family.rank(self.size)

    @property
    def d_value(self) -> Fraction:
        """The Peirce constant d of the family's Jordan algebra, which with
        rank_r fixes ``predicted_hilbert``."""
        return Fraction(self._family.d(self.nvars))

    def var_index(self, i: int, j: int = 0) -> int:
        index = _position_index(self.kind, self.size).get((i, j))
        if index is None:
            raise OutOfRangeError(f"position ({i}, {j}) is not in the layout of {self}")
        return index

    def __str__(self) -> str:
        return f"{self.kind.value}(n={self.size}, s={self.power})"


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


def _det_of(matrix: list[list[Poly]], nvars: int) -> Poly:
    """Cofactor expansion along the first row."""
    size = len(matrix)
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
    placed by ``_matrix_entries`` (symmetric or alternating as appropriate)."""
    if spec._family.mirror is None:
        raise InvalidSpecError("no generic matrix for this family")
    variables = [Poly.variable(spec.nvars, k) for k in range(spec.nvars)]
    return _filled(spec, _matrix_entries(spec, variables), Poly.zero(spec.nvars))


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


def _determinant(spec: FamilySpec) -> Poly:
    return _det_of(generic_matrix(spec), spec.nvars)


def _sum_of_squares(spec: FamilySpec) -> Poly:
    variables = (Poly.variable(spec.nvars, k) for k in range(spec.nvars))
    return sum((poly_mul(v, v) for v in variables), Poly.zero(spec.nvars))


def basic_invariant(spec: FamilySpec) -> Poly:
    """The degree-c0 basic relative invariant (power ignored)."""
    return spec._family.invariant(spec)


def make_invariant(spec: FamilySpec) -> Poly:
    """F = (basic invariant)^s, homogeneous of degree s * c0."""
    return poly_pow(basic_invariant(spec), spec.power)


def family_symmetry(spec: FamilySpec) -> Symmetry | None:
    """The torus weights of the variables and signed variable permutations
    that fix F up to sign, for ``hilbert_function``; None for a family
    without one (the quadric), which takes the generic path."""
    build = spec._family.symmetry
    return None if build is None else build(spec)


def _matrix_symmetry(spec: FamilySpec) -> Symmetry:
    """The symmetry of a matrix family, from its mirror rule alone.

    x_ij has weight e_i + e_j (for a matrix without mirror, (e_i, e'_j)).
    Index permutations p of 1..n are generated by the transposition (1 2)
    and the n-cycle, and x_ij goes to x_p(i)p(j): on rows and on columns
    apart for a matrix without mirror, which adds the transpose
    x_ij -> x_ji; with the mirror's sign when p flips the pair."""
    n, mirror = spec.size, spec._family.mirror
    positions = _positions(spec.kind, n)
    index = _position_index(spec.kind, n)
    offset = 0 if mirror else n
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
    if mirror:
        moves = [lambda i, j, p=p: (p[i], p[j]) for p in perms]
    else:
        moves = [lambda i, j, p=p: (p[i], j) for p in perms]
        moves += [lambda i, j, p=p: (i, p[j]) for p in perms]
        moves.append(lambda i, j: (j, i))
    generators = []
    for move in moves:
        gen = []
        for i, j in positions:
            a, b = move(i, j)
            if mirror and a > b:
                gen.append((index[(b, a)], mirror))
            else:
                gen.append((index[(a, b)], 1))
        generators.append(tuple(gen))
    return Symmetry(tuple(weights), tuple(generators))


def _matrix_entries(spec: FamilySpec, coeffs) -> dict[tuple[int, int], Fraction | int]:
    """The nonzero entries, by 0-based (row, column), of the matrix whose
    layout coefficients are ``coeffs``: the coefficient of x_ij sits at
    (i,j), and with a mirror also at (j,i) times the mirror's sign."""
    mirror = spec._family.mirror
    entries = {}
    for (i, j), a in zip(_positions(spec.kind, spec.size), coeffs):
        if not a:
            continue
        entries[(i - 1, j - 1)] = a
        if mirror and i != j:
            entries[(j - 1, i - 1)] = mirror * a
    return entries


def _filled(spec: FamilySpec, entries: dict, zero) -> list[list]:
    """The dense n x n rows of ``entries``, ``zero`` elsewhere."""
    n = spec.size
    return [[entries.get((i, j), zero) for j in range(n)] for i in range(n)]


def coeffs_to_matrix(spec: FamilySpec, L: Poly):
    """The matrix (``_matrix_entries``) whose entries are L's coefficients
    under the family layout, or their vector for a family without one."""
    coeffs = _linear_form_coeffs(L, spec.nvars)
    if spec._family.mirror is None:
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


def _matrix_in_orbit(spec: FamilySpec, point: list[int]) -> bool:
    return _nonsingular(_filled(spec, _matrix_entries(spec, point), 0))


def _in_open_orbit(spec: FamilySpec, point: list[int]) -> bool:
    """orbit_test on the integer coefficient vector `point` of L."""
    return spec._family.in_orbit(spec, point)


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
    _, point = _clear_denominators(_linear_form_coeffs(L, spec.nvars))
    return _in_open_orbit(spec, point)


def _unit_form(spec: FamilySpec, units: list[tuple[int, int]]) -> Poly:
    """The sum of the variables at the positions ``units``."""
    total = Poly.zero(spec.nvars)
    for i, j in units:
        total = total + Poly.variable(spec.nvars, spec.var_index(i, j))
    return total


def canonical_lefschetz(spec: FamilySpec) -> Poly:
    """The family's standard open-orbit element: the trace form for the
    determinant families, the standard symplectic form for Pfaffians, and
    the first coordinate for quadrics."""
    return _unit_form(spec, spec._family.units(spec.size))


def deficient_candidates(spec: FamilySpec) -> list[Poly]:
    """Deterministic boundary candidates of every deficient rank: the proper
    prefixes of the canonical element's units.  The quadric's has one unit,
    so none: rational nonzero vectors are never isotropic."""
    units = spec._family.units(spec.size)
    return [_unit_form(spec, units[:keep]) for keep in range(1, len(units))]


def _diagonal(n: int) -> list[tuple[int, int]]:
    return [(i, i) for i in range(1, n + 1)]


# One record per kind: every fact above that differs between the families.
_FAMILIES = {
    FamilyKind.GENERIC_DET: _Family(
        row=lambda n, i: range(1, n + 1), mirror=0,
        rank=lambda n: n, d=lambda nvars: 2, units=_diagonal,
        invariant=_determinant, in_orbit=_matrix_in_orbit,
        symmetry=_matrix_symmetry,
    ),
    FamilyKind.SYM_DET: _Family(
        row=lambda n, i: range(i, n + 1), mirror=1,
        rank=lambda n: n, d=lambda nvars: 1, units=_diagonal,
        invariant=_determinant, in_orbit=_matrix_in_orbit,
        symmetry=_matrix_symmetry,
    ),
    FamilyKind.PFAFFIAN: _Family(
        row=lambda n, i: range(i + 1, n + 1), mirror=-1,
        rank=lambda n: n // 2, d=lambda nvars: 4,
        units=lambda n: [(2 * t - 1, 2 * t) for t in range(1, n // 2 + 1)],
        invariant=lambda spec: pfaffian_poly(spec.size),
        in_orbit=_matrix_in_orbit, symmetry=_matrix_symmetry, even=True,
    ),
    # x_i at (i, 0); d = nvars - 2: 2m-3 in 2m-1 variables, 2m-4 in 2m-2
    FamilyKind.QUADRIC: _Family(
        row=lambda n, i: range(1), mirror=None,
        rank=lambda n: 2, d=lambda nvars: nvars - 2, units=lambda n: [(1, 0)],
        invariant=_sum_of_squares,
        in_orbit=lambda spec, point: bool(sum(a * a for a in point)),
        symmetry=None,
    ),
}
