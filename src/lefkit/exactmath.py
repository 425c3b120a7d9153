"""Exact linear algebra over the rationals.

Entries are exact rationals, and an integral entry is kept as a plain
``int`` (an ``int`` has ``numerator`` and ``denominator`` too), so the
integer catalecticants of ``macaulay`` reach the probe and the elimination
as they are, with no ``Fraction`` round-trip.  Every matrix is first split
into the connected components of its row/column graph (sparse
catalecticants fall apart into many small blocks), and that split is the
one place where rationals become integers: a row holding a ``Fraction`` is
scaled by the lcm of its denominators.  From there on only ints are seen:
rank, pivot rows, kernel and determinant come from one fraction-free
(Bareiss) elimination that works block by block on sparse integer rows, so
every intermediate value is a minor of the scaled input and the verdict is
exact.  ``Fraction`` is made only by ``_as_rational`` and in the values
that ``mat_det`` and ``mat_kernel`` return.
The pivots are the ones a whole-matrix elimination would choose: its
entries factor over the blocks, so its shortest-entry order is replayed
block by block.  ``mat_rank`` sums the block ranks; a block of one row or
one column has rank 1 (it holds only nonzero entries), and on each other
block a modular probe of the integer rows at one fixed prime p below 2^30
gives a cheap rank lower bound that short-circuits full-rank
confirmations, and only the blocks it cannot confirm are eliminated.  A probe rank is only ever a lower
bound: a minor that is nonzero mod p is nonzero, but a nonzero minor can
vanish mod p.  A row is never zero mod p just because p divides the lcm it
was scaled by, so no prime is bad for the probe.

The probe packs each row into one int, each column a slot of fixed width
(``_Slots``), and a row update is one big-int multiply-add over the whole
row.  A pivot row is reduced once, when it is chosen, by folding every
slot at once: p is 2^k - c with c small, and a slot q 2^k + r is
congruent to q c + r mod p, so shifts, masks and one small multiply keep
every slot's residue, and a fixed number of folds brings every slot below
4 * 2^k.  The multiplier of each update, below p, carries -1/pivot, so
the pivot row is never scaled slot by slot.  A slot starts below p and
gains less than p * 4 * 2^k at each of at most min(rows, cols) updates,
so a width of the bit length of p + min(rows, cols) * p * 4 * 2^k, in
whole bytes, never carries into a neighbour.  ``lefschetz`` keeps one
layout per prime for each dense SLP matrix and gathers its own rows from
the encoded residues.

``dense_rank`` is a second, rank-only fraction-free elimination, for a
caller that already holds one small block as dense integer rows (the
symmetric path of ``macaulay.hilbert_function``): no block split, no probe,
and no pivot order to replay, only the first nonzero row of each column as
its pivot.  Its divisions are checked exact as ``_echelon``'s are.  Floats
are never used anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .errors import InvariantError


def _as_rational(x) -> int | Fraction:
    """x as an exact rational: an int when it is integral, else a Fraction."""
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


class RatMatrix:
    """Immutable sparse matrix of exact rationals: integral entries are
    ints, the others Fractions in lowest terms.

    Only nonzero entries are stored.  Dimensions are fixed at construction
    and all mutating work happens on private dense copies.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        cleaned = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = _as_rational(v)
            if v:
                cleaned[(i, j)] = v
        self.rows, self.cols, self._entries = rows, cols, cleaned

    @classmethod
    def _of(cls, rows: int, cols: int, entries: dict) -> "RatMatrix":
        # Library-built entries, already clean (nonzero, in range, integral
        # ones as int): stored as given, without a copy.
        m = cls.__new__(cls)
        m.rows, m.cols, m._entries = rows, cols, entries
        return m

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "RatMatrix":
        """The matrix whose rows are `data`; each entry is cleaned once, and
        equal row lengths bound every index."""
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
        return cls._of(rows, cols, entries)

    def entry(self, i: int, j: int) -> int | Fraction:
        return self._entries.get((i, j), 0)

    def items(self) -> Iterator[tuple[tuple[int, int], int | Fraction]]:
        return iter(self._entries.items())

    def nnz(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def transpose(self) -> "RatMatrix":
        return RatMatrix._of(
            self.cols, self.rows, {(j, i): v for (i, j), v in self._entries.items()}
        )

    def dense(self) -> list[list[int | Fraction]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self._entries.items():
            out[i][j] = v
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


# The probe prime of mat_rank and of slp_check: the largest prime below 2^30.
# A fixed prime keeps the rank path, like the verdict, a function of the
# input alone.  Below 2^30 the multiplier of a row update is a single
# 30-bit CPython digit, so each update is one linear pass, and 2^30 - p is
# small, so a pivot row is reduced by two folds.
PROBE_PRIME = (1 << 30) - 35


class _Slots:
    """The slot layout of the packed probe for ``prime`` on a matrix with
    ``nrows`` rows and ``ncols`` columns: column j of a row sits in the
    ``width`` bits from bit j * width.

    With k = prime.bit_length(), R = 2^k and c = R - prime, a slot
    x = q R + r is congruent to q c + r mod prime, so one fold of a packed
    row, (row & lo) + ((row >> k) & hi) * c, with lo and hi masking each
    slot's low k bits and its remaining bits, keeps every slot's residue.
    As prime >= R / 2, c <= R / 2 and a folded slot never carries into its
    neighbour.  ``folds`` folds take a slot from the widest it can be to
    below 4R.  A slot starts below prime, and each of at most
    min(nrows, ncols) updates adds a multiplier below prime times a folded
    slot below 4R, so ``width`` is the bit length of
    prime + min(nrows, ncols) * prime * 4R, rounded up to whole bytes so
    that a row packs as the bytes of its slots."""

    __slots__ = ("prime", "ncols", "width", "bits", "c", "lo", "hi", "folds")

    def __init__(self, prime: int, nrows: int, ncols: int):
        k = prime.bit_length()
        big, c = 4 << k, (1 << k) - prime
        self.prime, self.ncols, self.bits, self.c = prime, ncols, k, c
        width = (prime + min(nrows, ncols) * prime * big).bit_length()
        self.width = width = -(-width // 8) * 8
        # a 1 at the bottom of each slot
        ones = ((1 << ncols * width) - 1) // ((1 << width) - 1)
        self.lo, self.hi = ones * ((1 << k) - 1), ones * ((1 << width - k) - 1)
        self.folds, top = 0, (1 << width) - 1
        while top >= big:
            top = (1 << k) - 1 + (top >> k) * c
            self.folds += 1

    def encode(self, values: Iterable[int]) -> list[bytes]:
        """The residue of each value mod the prime, as the bytes of a slot."""
        p, size = self.prime, self.width // 8
        return [(v % p).to_bytes(size, "little") for v in values]

    def pack(
        self, rows: Iterable[tuple[Iterable[int], Iterable[bytes]]]
    ) -> Iterator[int]:
        """Each row, given as (its columns, the encoded slot of each), as
        one int: the slots in column order, zero where the row has no
        entry.  A generator, so that no list of whole packed rows outlives
        the kernel's first pass over them."""
        blank = [bytes(self.width // 8)] * self.ncols
        for cols, slots in rows:
            row = blank[:]
            for j, slot in zip(cols, slots):
                row[j] = slot
            yield int.from_bytes(b"".join(row), "little")


def _rank_mod_p(rows: Iterable[int], slots: _Slots) -> int:
    """Rank mod ``slots.prime`` of the matrix whose rows are packed by
    ``slots.pack``, each slot below the prime.

    Columns go in order, the current one always in the lowest slot.  A
    pivot row's other slots are folded (see ``_Slots``) once, when it is
    chosen, and its update of row R is R >> width plus (R's lowest slot
    times -1/pivot, mod p) times those folded slots: one big-int
    multiply-add, whose shift drops the lowest slot (now 0 mod p).  The
    other slots are only ever added to, and every slot keeps the residue
    that an update reduced slot by slot would give, so the pivots and the
    rank are those of elimination mod p.  Each update replaces its row in
    place, so the rows before and after a pivot are never all held at
    once."""
    p, width, k, c = slots.prime, slots.width, slots.bits, slots.c
    lo, hi, folds = slots.lo, slots.hi, range(slots.folds)
    mask = (1 << width) - 1
    live = [row for row in rows if row]
    rank = 0
    for _ in range(slots.ncols):
        if not live:
            break
        for j, row in enumerate(live):
            if (row & mask) % p:
                break
        else:  # no pivot in this column
            for i, row in enumerate(live):
                live[i] = row >> width
            continue
        pivot = live.pop(j)
        neg_inv = p - pow(pivot & mask, -1, p)
        tail = pivot >> width
        for _ in folds:
            tail = (tail & lo) + ((tail >> k) & hi) * c
        for i, row in enumerate(live):
            live[i] = (row >> width) + (row & mask) * neg_inv % p * tail
        rank += 1
    return rank


_Block = tuple[dict[int, dict[int, int]], list[int]]


def _blocks(m: RatMatrix) -> tuple[list[_Block], int]:
    """The connected components of the bipartite row/column graph of the
    nonzero entries, each as (its integer rows, keyed by original row and
    then original column; its columns), and the product of the row scales.
    Permuting ``m`` into block-diagonal form leaves its rank unchanged, so
    the rank of ``m`` is the sum of the block ranks; empty rows and columns
    belong to no block.

    This is the one place where rationals become integers: a row holding a
    Fraction is scaled by the lcm of its denominators, which changes
    neither rank nor right kernel and divides the determinant by that lcm;
    an all-int row is used as it is, with no lcm taken (nor any row's,
    when the whole matrix is int).

    Each block is keyed by the row that opened it.  Every row i and column
    j (as ~j) records its block's key, and when an entry joins two blocks
    the smaller one's members are relabelled into the larger; the member
    lists give each block's columns."""
    key: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    by_row: dict[int, dict[int, int | Fraction]] = {}
    for (i, j), v in m._entries.items():
        by_row.setdefault(i, {})[j] = v
        a, b = key.get(i), key.get(~j)
        if a is None and b is None:
            key[i] = key[~j] = i
            members[i] = [i, ~j]
        elif a is None:
            key[i] = b
            members[b].append(i)
        elif b is None:
            key[~j] = a
            members[a].append(~j)
        elif a != b:
            if len(members[a]) < len(members[b]):
                a, b = b, a
            for x in members[b]:
                key[x] = a
            members[a] += members.pop(b)
    grouped: dict[int, dict[int, dict[int, int]]] = {k: {} for k in members}
    scale = 1
    ints = all(map(isinstance, m._entries.values(), repeat(int)))
    for i, row in by_row.items():
        if not (ints or all(map(isinstance, row.values(), repeat(int)))):
            s = lcm(*(v.denominator for v in row.values()))
            scale *= s
            row = {j: v.numerator * (s // v.denominator) for j, v in row.items()}
        grouped[key[i]][i] = row
    return [(grouped[k], [~x for x in mem if x < 0]) for k, mem in members.items()], scale


# ---------------------------------------------------------------------------
# fraction-free elimination


@dataclass
class _Echelon:
    pivots: list[tuple[int, int, dict[int, int]]]  # (row, column, echelon row), by column
    col_block: dict[int, int]  # the block of each nonzero column
    last: list[int]  # each block's last pivot: the determinant of its pivot minor
    sign: int  # of the whole-matrix row swaps


def _echelon(blocks: list[_Block]) -> _Echelon:
    """Bareiss elimination of the matrix made of ``blocks``, on their
    sparse integer rows, one block at a time but with the pivots the whole
    matrix would choose.  The rows are used up: pivot rows are popped and
    the others reduced in place.

    Whole-matrix pivot rule: columns in order; among the rows not yet used
    with a nonzero entry in the column, take the entry of smallest bit
    length, ties to the lowest current position, then swap that row into
    the next position.  Every entry of the whole-matrix elimination is a
    minor, and a minor of a block-diagonal matrix factors over the blocks
    (Sylvester's identity), so the whole-matrix entry of a row of block B is
    Q_B * v: v is B's own entry and Q_B the product of every other block's
    last pivot.  The bit length of Q_B * v and a position array that follows
    the whole-matrix swaps replay that rule exactly.  Each block's two-term
    update divides by its own previous pivot; exactness of that division is
    asserted (every intermediate entry is a minor of the scaled input).

    Rows are scaled lazily.  A row with a zero in the pivot column would
    only be multiplied by the pivot and divided by the previous one, so it
    is left as it is and keeps the pivot P_s it was last brought up to.
    One scan per column finds the rows with a nonzero entry there; each
    that sat out pivots since P_s is first caught up to the block's last
    pivot P, every entry x to x * P / P_s (the skipped factors telescope),
    by one division that is checked exact like every other.  Its entries,
    and so the pivot choice, are then the eager elimination's.  A row that
    becomes zero is dropped.
    """
    live = [rows for rows, _ in blocks]  # per block: unused row -> entries
    col_block = {j: b for b, (_, cols) in enumerate(blocks) for j in cols}
    last = [1] * len(blocks)
    product = 1  # of every block's last pivot
    since: dict[int, int] = {}  # the pivot each row was last brought up to (else 1)
    pos: dict[int, int] = {}  # current position of each moved row
    at: dict[int, int] = {}  # row at each changed position
    sign = 1
    pivots = []
    for c in sorted(col_block):
        b = col_block[c]
        rows, prev = live[b], last[b]
        if not rows:
            continue
        q = product // prev
        best, reached = None, []
        for i, row in rows.items():
            v = row.get(c)
            if v:
                s = since.get(i, 1)
                if s != prev:  # sat out the pivots after s: catch up
                    new = {}
                    for j, x in row.items():
                        new[j], rem = divmod(x * prev, s)
                        if rem:
                            raise InvariantError("fraction-free step lost integrality")
                    rows[i] = row = new
                    v = row[c]
                reached.append(i)
                key = ((q * v).bit_length(), pos.get(i, i))
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            continue
        (_, here), p = best
        r = len(pivots)
        other = at.get(r, r)
        if here != r:
            pos[p], pos[other] = r, here
            at[r], at[here] = p, other
            sign = -sign
        prow = rows.pop(p)
        piv = prow[c]
        for i in reached:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(c)
            new = {j: v * piv for j, v in row.items()}
            for j, w in prow.items():
                if j != c:
                    new[j] = new.get(j, 0) - f * w
            row = {}
            for j, num in new.items():
                v, rem = divmod(num, prev)
                if rem:
                    raise InvariantError("fraction-free step lost integrality")
                if v:
                    row[j] = v
            if row:
                rows[i], since[i] = row, piv
            else:  # a zero row never pivots
                del rows[i]
        pivots.append((p, c, prow))
        product = q * piv
        last[b] = piv
    return _Echelon(pivots, col_block, last, sign)


def _block_rank(rows: dict[int, dict[int, int]], cols: list[int]) -> int:
    # A block holds only nonzero entries, so with one row or one column its
    # rank is 1.  Otherwise the rank mod PROBE_PRIME of the block's integer
    # rows, each column numbered by its place in cols, is a lower bound, so
    # reaching min(rows, cols) is conclusive; anything less falls through
    # to fraction-free elimination.
    full = min(len(rows), len(cols))
    if full == 1:
        return 1
    slots = _Slots(PROBE_PRIME, len(rows), len(cols))
    at = {j: k for k, j in enumerate(cols)}
    packed = slots.pack(
        (map(at.__getitem__, row), slots.encode(row.values())) for row in rows.values()
    )
    if _rank_mod_p(packed, slots) == full:
        return full
    return len(_echelon([(rows, cols)]).pivots)


def mat_rank(m: RatMatrix) -> int:
    """Exact rank over the rationals: the sum of the exact ranks of the
    blocks of ``m``.  Each block is confirmed full rank by the modular probe
    or else ranked by fraction-free elimination."""
    return sum(_block_rank(*b) for b in _blocks(m)[0])


def dense_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of the integer matrix whose rows are ``rows`` (equal
    lengths), by a fraction-free (Bareiss) elimination that keeps only the
    rank.

    Columns go in order, and the first row with a nonzero entry in the
    current column becomes the pivot row.  Each finished column is dropped,
    and so is every row that becomes all zero, so every live row is nonzero.
    An updated entry (v * pivot - f * w) / previous pivot is a minor of the
    input, so the division is exact; a nonzero remainder raises
    InvariantError, as in ``_echelon``."""
    live = [row for row in rows if any(row)]
    rank, prev = 0, 1
    while live:
        for k, row in enumerate(live):
            if row[0]:
                break
        else:  # no pivot in this column
            live = [row[1:] for row in live]
            continue
        pivot = live.pop(k)
        piv, tail = pivot[0], pivot[1:]
        reduced = []
        for row in live:
            f, new = row[0], []
            for v, w in zip(row[1:], tail):
                q, rem = divmod(v * piv - f * w, prev)
                if rem:
                    raise InvariantError("fraction-free step lost integrality")
                new.append(q)
            if any(new):
                reduced.append(new)
        live, prev = reduced, piv
        rank += 1
    return rank


def pivot_rows(m: RatMatrix) -> list[int]:
    """Original indices of the pivot rows of the deterministic elimination,
    sorted ascending.  They are a maximal independent set of rows of ``m``."""
    return sorted(p for p, _, _ in _echelon(_blocks(m)[0]).pivots)


def mat_kernel(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of ``m``.

    One vector per free column: the primitive integer vector (as Fractions)
    that is positive in that column's slot and zero in every other free
    column's; satisfies M v = 0 exactly, and len(result) = cols -
    mat_rank(m).  The pivot columns are the first columns independent of
    the ones before them, whichever rows are chosen, so each vector is
    fixed by ``m``; it is supported on its column's block.

    Back-substitution stays in integers: where a pivot p does not divide
    the running sum s, the vector so far is scaled by p / gcd(s, p) first,
    and the vector is divided by the gcd of its entries at the end.
    """
    ech = _echelon(_blocks(m)[0])
    block_pivots: dict[int, list[tuple[int, dict[int, int]]]] = {}
    for _, c, row in ech.pivots:
        block_pivots.setdefault(ech.col_block[c], []).append((c, row))
    pivot_cols = {c for _, c, _ in ech.pivots}
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = {f: 1}
        for pc, row in reversed(block_pivots.get(ech.col_block.get(f), [])):
            s = sum(w * v[j] for j, w in row.items() if j in v)
            if s:
                g = gcd(s, row[pc])
                if (t := row[pc] // g) != 1:
                    v = {j: x * t for j, x in v.items()}
                v[pc] = -(s // g)
        g = gcd(*v.values()) if v[f] > 0 else -gcd(*v.values())
        out = [Fraction(0)] * m.cols
        for j, x in v.items():
            out[j] = Fraction(x // g)
        basis.append(tuple(out))
    return basis


def mat_det(m: RatMatrix) -> Fraction:
    """Determinant of a square matrix via the same fraction-free elimination:
    when every column is a pivot, the determinant of the integer rows of
    ``_blocks`` is the sign of the row swaps times the product of the
    blocks' last pivots (the whole-matrix last pivot), and dividing it once
    by the product of the row scales gives the determinant of ``m``."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    blocks, scale = _blocks(m)
    ech = _echelon(blocks)
    if len(ech.pivots) < m.rows:
        return Fraction(0)
    return Fraction(ech.sign * prod(ech.last), scale)
