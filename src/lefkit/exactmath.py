"""Exact linear algebra over the rationals.

Rank and kernel are decided by fraction-free (Bareiss) elimination on
integer rows, so every intermediate value is a minor of the input and the
verdict is exact.  ``mat_rank`` first splits the matrix into the connected
components of its row/column graph (sparse catalecticants fall apart into
many small blocks) and sums the block ranks; on each block a modular probe
at one fixed 62-bit prime gives a cheap rank lower bound that
short-circuits full-rank confirmations.  Floats are never used anywhere in
this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

from .errors import BadPrimeError, InvariantError

# Rational scalars are stdlib Fractions: arbitrary precision, always in
# lowest terms, positive denominator.
Rational = Fraction


def _as_rational(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class RatMatrix:
    """Immutable sparse matrix with Fraction entries.

    Only nonzero entries are stored.  Dimensions are fixed at construction
    and all mutating work happens on private dense copies.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        self.rows = rows
        self.cols = cols
        cleaned = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = _as_rational(v)
            if v:
                cleaned[(i, j)] = v
        self._entries = cleaned

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RatMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = _as_rational(v)
                if v:
                    entries[(i, j)] = v
        return cls(rows, cols, entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self._entries.get((i, j), Fraction(0))

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(self._entries.items())

    def nnz(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self._entries.items()}
        )

    def dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._entries.items():
            out[i][j] = v
        return out

    def mul_vector(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for (i, j), a in self._entries.items():
            out[i] += a * v[j]
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# fraction-free elimination


@dataclass
class _Echelon:
    rank: int
    pivots: list[tuple[int, int]]  # (echelon row, column), in elimination order
    matrix: list[list[int]]  # integer echelon rows; rows >= rank are zero
    pivot_source_rows: list[int]  # original row index feeding each pivot row
    swap_sign: int
    row_scale_product: int  # product of the positive per-row denominators cleared


def _cleared_integer_rows(m: RatMatrix) -> tuple[list[list[int]], int]:
    """Scale each row by the lcm of its denominators; returns rows and the
    product of all scales.  Row scaling changes neither rank nor right kernel."""
    dense = m.dense()
    scale_product = 1
    out = []
    for row in dense:
        s = lcm(*(v.denominator for v in row)) if row else 1
        scale_product *= s
        out.append([int(v * s) for v in row])
    return out, scale_product


def _fraction_free_echelon(m: RatMatrix) -> _Echelon:
    """Bareiss elimination with shortest-entry pivoting.

    Pivot choice: among nonzero candidates in the current column block take
    the entry of smallest bit length, ties to the lowest row index.  The
    two-term update divides by the previous pivot; exactness of that division
    is asserted (every intermediate entry is a minor of the scaled input).
    """
    a, scale_product = _cleared_integer_rows(m)
    nrows, ncols = m.rows, m.cols
    source = list(range(nrows))
    pivots: list[tuple[int, int]] = []
    pivot_source_rows: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = None
        for i in range(r, nrows):
            v = a[i][c]
            if v:
                key = (abs(v).bit_length(), i)
                if best is None or key < best:
                    best = key
        if best is None:
            continue
        i = best[1]
        if i != r:
            a[r], a[i] = a[i], a[r]
            source[r], source[i] = source[i], source[r]
            sign = -sign
        piv = a[r][c]
        for ii in range(r + 1, nrows):
            f = a[ii][c]
            row_ii = a[ii]
            row_r = a[r]
            for jj in range(c + 1, ncols):
                num = row_ii[jj] * piv - f * row_r[jj]
                q, rem = divmod(num, prev)
                if rem:
                    raise InvariantError("fraction-free step lost integrality")
                row_ii[jj] = q
            row_ii[c] = 0
        pivots.append((r, c))
        pivot_source_rows.append(source[r])
        prev = piv
        r += 1
    return _Echelon(r, pivots, a, pivot_source_rows, sign, scale_product)


# Deterministic Miller-Rabin witness set, sufficient below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime_u64(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The probe prime of mat_rank: the least prime above 2^61.  A fixed prime
# keeps the rank path, like the verdict, a function of the input alone.
PROBE_PRIME = (1 << 61) + 15


def random_probe_prime(rng: random.Random | None = None) -> int:
    """A random prime in [2^61, 2^62), for modular rank probes."""
    rng = rng or random
    while True:
        candidate = rng.randrange(1 << 61, 1 << 62) | 1
        if _is_prime_u64(candidate):
            return candidate


def mat_rank_modular_probe(m: RatMatrix, prime: int) -> int:
    """Rank of ``m`` reduced mod ``prime``: a lower bound for the exact rank,
    never the final verdict.  Raises BadPrimeError if a stored denominator
    vanishes mod ``prime``."""
    a = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.items():
        den = v.denominator % prime
        if den == 0:
            raise BadPrimeError(f"denominator divisible by {prime}")
        a[i][j] = v.numerator * pow(den, prime - 2, prime) % prime
    rank = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(rank, m.rows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        inv = pow(a[rank][c], prime - 2, prime)
        for i in range(rank + 1, m.rows):
            f = a[i][c]
            if f:
                mult = f * inv % prime
                a[i] = [(x - mult * y) % prime for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m.rows:
            break
    return rank


def _blocks(m: RatMatrix) -> list[RatMatrix]:
    """The connected components of the bipartite row/column graph of the
    nonzero entries, each as a submatrix (rows and columns kept in their
    original order).  Permuting ``m`` into block-diagonal form leaves its
    rank unchanged, so the rank of ``m`` is the sum of the block ranks;
    empty rows and columns belong to no block."""
    parent = list(range(m.rows + m.cols))  # rows, then columns offset by m.rows

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j), _ in m.items():
        a, b = root(i), root(m.rows + j)
        if a != b:
            parent[b] = a
    grouped: dict[int, dict] = {}
    for (i, j), v in m.items():
        grouped.setdefault(root(i), {})[(i, j)] = v
    blocks = []
    for entries in grouped.values():
        row_at = {i: k for k, i in enumerate(sorted({i for i, _ in entries}))}
        col_at = {j: k for k, j in enumerate(sorted({j for _, j in entries}))}
        blocks.append(RatMatrix(len(row_at), len(col_at), {
            (row_at[i], col_at[j]): v for (i, j), v in entries.items()
        }))
    return blocks


def _block_rank(m: RatMatrix) -> int:
    # Probe rank is a lower bound, so reaching min(rows, cols) is conclusive;
    # anything less falls through to fraction-free elimination.
    full = min(m.rows, m.cols)
    try:
        if mat_rank_modular_probe(m, PROBE_PRIME) == full:
            return full
    except BadPrimeError:
        pass
    return _fraction_free_echelon(m).rank


def mat_rank(m: RatMatrix) -> int:
    """Exact rank over the rationals: the sum of the exact ranks of the
    blocks of ``m``.  Each block is confirmed full rank by the modular probe
    or else ranked by fraction-free elimination."""
    return sum(_block_rank(b) for b in _blocks(m))


def pivot_rows(m: RatMatrix) -> list[int]:
    """Original indices of the pivot rows of the deterministic elimination,
    sorted ascending.  They are a maximal independent set of rows of ``m``."""
    return sorted(_fraction_free_echelon(m).pivot_source_rows)


def _primitive(v: list[Fraction]) -> tuple[Fraction, ...]:
    # Scale to coprime integers; the lcm is positive so signs are preserved.
    mult = lcm(*(x.denominator for x in v))
    ints = [int(x * mult) for x in v]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints)


def mat_kernel(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of ``m``.

    One vector per free column, with a 1 in that column's slot before
    normalization to a primitive integer vector; satisfies M v = 0 exactly,
    and len(result) = cols - mat_rank(m).
    """
    ech = _fraction_free_echelon(m)
    pivot_cols = [c for (_, c) in ech.pivots]
    pivot_col_set = set(pivot_cols)
    free_cols = [c for c in range(m.cols) if c not in pivot_col_set]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for k in range(ech.rank - 1, -1, -1):
            row = ech.matrix[k]
            pc = pivot_cols[k]
            s = Fraction(0)
            for j in range(pc + 1, m.cols):
                if row[j] and v[j]:
                    s += Fraction(row[j]) * v[j]
            v[pc] = -s / row[pc]
        basis.append(_primitive(v))
    return basis


def mat_det(m: RatMatrix) -> Fraction:
    """Determinant of a square matrix via the same fraction-free elimination
    (the final pivot is the determinant of the row-cleared integer matrix)."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    if m.rows == 0:
        return Fraction(1)
    ech = _fraction_free_echelon(m)
    if ech.rank < m.rows:
        return Fraction(0)
    last_pivot = ech.matrix[m.rows - 1][ech.pivots[-1][1]]
    return Fraction(ech.swap_sign * last_pivot, ech.row_scale_product)


def identity_matrix(n: int) -> RatMatrix:
    return RatMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})
