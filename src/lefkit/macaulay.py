"""Catalecticant matrices, Hilbert functions, and annihilator graded pieces.

For a nonzero homogeneous F of degree c, the degree-i catalecticant pairs
operators of degree i (rows) against the degree c-i monomial basis (columns);
its rank is the Hilbert function value h_i of the Gorenstein quotient, and
the left kernel is the degree-i piece of the annihilator.  The matrix is
built straight from the terms of F, one entry per (term, degree-i divisor)
pair, and it is very sparse: an entry only pairs monomials of matching torus
weight, so it falls apart into small torus-weight blocks.

One enumerator makes every catalecticant entry, here and in
``lefschetz.SlpTable``: each caller loops over F's terms as integers over
one recorded scale D (``_integer_terms``; D is the lcm of F's coefficient
denominators, ``polyring._clear_denominators``) and walks the divisors of
each term, pruned by degree (``_divisors``).  A divisor x^mu of x^e gives
the entry at row mu and column key(e) - key(mu), term by term, with no
list of all pairs and no tuple per pair beyond the walk's own.  Monomials
are mixed-radix integer keys in one order everywhere (``_steps``): x_0 is
the most significant digit, so within one degree a larger key is an
earlier graded-lex monomial.  Each variable is one comprehension over the
partial divisors, reading a row (key step, exponent, perm(e_k, exponent))
built once per term and variable, sliced to the degree window once per
partial degree.  The rank path (``hilbert_function``) ranks those
integers with rows and columns numbered by key, and never lists monomial
labels.  The public ``catalecticant``, ``lefschetz.default_degree_basis``
and ``lefschetz.HessianTable`` share one builder, which places a range of
degrees from one walk: each row at its graded-lex position
(``_glex_rank_of_key``, read off the key's digits, not looked up in a
label list), the nonzero columns numbered by descending key with nothing
decoded, as elimination reads only the order of the columns, and the
entries divided by D (when D > 1), so they are the exact rationals.
``catalecticant`` puts the columns back at their graded-lex positions.
Each degree is an independent rank computation: no elimination state is
shared between i and c-i, so transpose-rank duality stays a genuine
cross-check.
The cell budget still counts the dense cells of the largest catalecticant.

Given a Symmetry (the family invariants' torus weights and signed variable
permutations, from ``families.family_symmetry``), ``hilbert_function``
ranks one torus-weight block per symmetry orbit and counts its rank times
the orbit size.  It builds each such block itself and ranks it as dense
integer rows along its shorter side by ``exactmath.dense_rank``, a
rank-only fraction-free elimination with no block split and no modular
probe.  The symmetry is checked exactly on F first, and any failure raises
InvariantError (exit code 4) with no fallback.  The walk
makes few rows of the other blocks at all: for each coordinate
transposition (a b), a < b, found in the generated coordinate group, the
least key of an orbit has w_a >= w_b (else swapping a and b lowers
coordinate b, which outranks a in the key).  Weights are non-negative, so
once no later variable touches coordinate a, w_b only grows: a partial
divisor with w_a < w_b is dropped where a becomes final, and variable k's
exponent is held to (w_a - w_b) // weight_k[b] after that.  The orbit
table still decides every row, so no block changes.  Without one
(a weighted F(w*x), a quadric, any other F) it ranks each whole degree by
``mat_rank``, which splits it into its blocks itself; that generic path is
the oracle the symmetric one, and ``dense_rank``, are tested against.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb, perm
from operator import mul

from .errors import (
    InvariantError,
    OutOfRangeError,
    TooLargeError,
    ZeroPolynomialError,
)
from .exactmath import RatMatrix, dense_rank, mat_kernel, mat_rank
from .polyring import (
    Monomial,
    Poly,
    _clear_denominators,
    dim_of_degree,
    monomials_of_degree,
)

DEFAULT_CELL_BUDGET = 4_000_000


def resolve_budget(budget: int | None = None) -> int:
    """Explicit budget, else the 4e6-cell default."""
    value = DEFAULT_CELL_BUDGET if budget is None else int(budget)
    if value <= 0:
        raise ValueError("cell budget must be positive")
    return value


def max_catalecticant_cells(nvars: int, socle_degree: int) -> int:
    """Cells of the middle catalecticant, the largest: the ratio of
    consecutive dimensions, (nvars + i - 1) / i, falls as i grows, so
    dim_i * dim_(c-i) grows toward i = c // 2."""
    i = socle_degree // 2
    return dim_of_degree(nvars, i) * dim_of_degree(nvars, socle_degree - i)


def count_text(n: int) -> str:
    """n in decimal, or, when it has more digits than Python's int-to-str
    limit lets ``str`` print, as the power of two it reaches."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits or n < 10**digits:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


def ensure_within_budget(
    nvars: int, socle_degree: int, budget: int | None = None, samples: int = 1
) -> None:
    """Refuse when the largest catalecticant, counted once per sampled
    linear form, needs more cells than the budget."""
    limit = resolve_budget(budget)
    worst = max_catalecticant_cells(nvars, socle_degree)
    if worst > limit:
        raise TooLargeError(
            f"largest catalecticant needs {count_text(worst)} cells, "
            f"budget is {count_text(limit)}"
        )
    if samples * worst > limit:
        raise TooLargeError(
            f"{count_text(samples)} samples of the largest catalecticant need "
            f"{count_text(samples * worst)} cells, budget is {count_text(limit)}"
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


def _weight_key(w: tuple[int, ...], wbase: int) -> int:
    """The torus weight w as bit fields, coordinate a at w_a * wbase^a (a
    later coordinate is the more significant one): what the symmetric
    walk carries above a monomial key."""
    key = 0
    for v in reversed(w):
        key = key * wbase + v
    return key


def _monomial(key: int, base: int, nvars: int) -> Monomial:
    """The exponent tuple whose key (``_steps``) is ``key``."""
    out = [0] * nvars
    for k in range(nvars - 1, -1, -1):
        key, out[k] = divmod(key, base)
    return tuple(out)


def _glex_rank_of_key(key: int, base: int, nvars: int) -> int:
    """The index in monomials_of_degree of the monomial e whose key
    (``_steps``) is ``key``.

    The monomials before e are those that agree with it on variables
    0..k-1 and exceed it at k.  With t = the degree of e after variable k,
    those leave t - 1, t - 2, ..., 0 for the j = n - k - 1 later variables,
    and by the hockey-stick identity they count C(t + j - 1, j).  The
    digits are read from the least significant one, so after j of them t
    is the degree of the last j variables."""
    rank = t = 0
    for j in range(1, nvars):
        key, e = divmod(key, base)
        t += e
        rank += comb(t + j - 1, j)
    return rank


def _steps(base: int, nvars: int) -> list[int]:
    """The key step of each variable, the one monomial key order: the key
    of x^e is sum e_k * step_k, with x_0 the most significant digit, so
    within one degree a larger key is an earlier graded-lex monomial."""
    return [base ** (nvars - 1 - k) for k in range(nvars)]


def _divisors(
    expo: Monomial, steps: list[int], low: int, high: int, value: int = 1,
    caps=None,
):
    """(key, degree, value * prod perm(e_k, d_k)) for every divisor x^d of
    x^expo of degree low..high; a partial divisor that can no longer reach
    that range is pruned.  The key of d is sum d_k * steps[k], additive, so
    the key of x^(e - d) is key(e) - key(d).

    ``caps``, the symmetric path's (``_walk_plan``), gives each variable k
    a (cap, check) pair, w read from the partial key's weight bits: d_k is
    held to at most (w_a - w_b) // wb for each (bit of w_a, bit of w_b, wb,
    mask) in cap, and when e_k > 0 a partial stays after variable k only
    if w_a >= w_b for each (bit of w_a, bit of w_b, mask) in check.

    The divisors come in lexicographic order of (d_0, d_1, ...), one
    comprehension per variable with e_k > 0.  What d_k = d adds (key step,
    degree, perm(e_k, d)) is a row built once per term and variable; a
    partial of degree deg takes spans[deg], the slice of it the window
    allows.  A cap of one or two entries is written into the comprehension
    (one entry is taken twice), and each check is a filter of its own."""
    left = sum(expo)  # degree still available after this variable
    parts = [(0, 0, value)] if low <= left and high >= 0 else []
    done = 0  # degree of the variables walked so far
    for e, step, (cap, check) in zip(expo, steps, caps or repeat(((), ()))):
        if not e:
            continue
        left -= e
        # what d_k = d adds to a partial: its key, its degree, perm(e, d)
        row = [(d * step, d, perm(e, d)) for d in range(e + 1)]
        # spans[deg]: the d that keep a degree-deg partial in the window
        lo = low - left
        spans = [
            row[(lo - deg if lo > deg else 0):high - deg + 1]
            for deg in range(min(done, high) + 1)
        ]
        done += e
        if not cap:
            parts = [
                (key + s, deg + d, v * p)
                for key, deg, v in parts for s, d, p in spans[deg]
            ]
        elif len(cap) <= 2:
            (a, b, wb, m), (a2, b2, wb2, m2) = cap[0], cap[-1]
            parts = [
                (key + s, deg + d, v * p)
                for key, deg, v in parts
                for x in [(((key >> a) & m) - ((key >> b) & m)) // wb]
                for y in [(((key >> a2) & m2) - ((key >> b2) & m2)) // wb2]
                for s, d, p in spans[deg] if d <= x and d <= y
            ]
        else:
            parts = [
                (key + s, deg + d, v * p)
                for key, deg, v in parts
                for x in [min([
                    (((key >> a) & m) - ((key >> b) & m)) // wb
                    for a, b, wb, m in cap
                ])]
                for s, d, p in spans[deg] if d <= x
            ]
        for a, b, m in check:
            parts = [
                part for part in parts
                if ((part[0] >> a) & m) >= ((part[0] >> b) & m)
            ]
    return parts


def _integer_terms(
    f: Poly, steps: list[int]
) -> tuple[int, list[tuple[Monomial, int, int]]]:
    """D, the lcm of F's coefficient denominators, and each term coeff*x^e
    of F as (e, key(e) by ``steps``, D * coeff).  A divisor x^mu of x^e
    that ``_divisors`` yields with the value D * coeff is the integer entry
    D * coeff * prod perm(e_k, mu_k) at row mu and column x^(e - mu), whose
    key is key(e) - key(mu), of the catalecticant of D*F; distinct (term,
    divisor) pairs give distinct (row, column) cells."""
    scale, values = _clear_denominators([coeff for _, coeff in f.terms()])
    return scale, [
        (expo, sum(map(mul, expo, steps)), value)
        for (expo, _), value in zip(f.terms(), values)
    ]


def _placed_catalecticant(
    f: Poly, c: int, low: int, high: int
) -> list[tuple[RatMatrix, dict[int, int], list[int]]]:
    """The degree-i catalecticant of F (degree c) for each i = low..high,
    from one walk of the entry enumerator (``_integer_terms`` and
    ``_divisors``) with keys by ``_steps(c + 1, nvars)`` (a key decodes
    to ``_monomial(key, c + 1, nvars)``).  Each row
    sits at its graded-lex position (``_glex_rank_of_key``), numbered over all
    degree-i monomials, zero ones included; only the nonzero columns are
    kept, numbered by descending key, so in graded-lex order.  Elimination reads
    absolute row positions (a pivot row moves to position
    ``len(pivots)``, ties go to the lowest position) but only the order of
    the columns, so the pivot rows are those of the full matrix.  With each
    matrix come the key of each nonzero row by its position and the column
    keys in column order.  Entries are the enumerator's integers divided by
    its scale D (when D > 1)."""
    for i in (low, high):
        if not 0 <= i <= c:
            raise OutOfRangeError(f"degree {i} outside 0..{c}")
    base, nvars = c + 1, f.nvars
    steps = _steps(base, nvars)
    scale, terms = _integer_terms(f, steps)
    # per degree: row key -> graded-lex position, column key -> its (row, entry) pairs
    degrees = [({}, {}) for _ in range(low, high + 1)]
    for expo, whole, value in terms:
        for mu, deg, entry in _divisors(expo, steps, low, high, value):
            rows, cols = degrees[deg - low]
            r = rows.get(mu)
            if r is None:
                r = rows[mu] = _glex_rank_of_key(mu, base, nvars)
            rest = whole - mu
            col = cols.get(rest)
            if col is None:
                cols[rest] = [(r, entry)]
            else:
                col.append((r, entry))
    placed = []
    for i, (rows, cols) in enumerate(degrees, low):
        order = sorted(cols, reverse=True)
        entries = {(r, j): v for j, key in enumerate(order) for r, v in cols[key]}
        shape = dim_of_degree(nvars, i), len(order)
        if scale > 1:  # back to F's own entries; RatMatrix keeps integral ones as int
            matrix = RatMatrix(*shape, {
                cell: Fraction(entry, scale) for cell, entry in entries.items()
            })
        else:
            matrix = RatMatrix._of(*shape, entries)
        placed.append((matrix, {r: key for key, r in rows.items()}, order))
    return placed


def catalecticant(f: Poly, i: int) -> CatMatrix:
    """Rows: degree-i monomials acting by contraction; columns: the degree
    c-i monomial basis; entry = coefficient of the column monomial in
    (row monomial) contracted against f.  Rows and columns are graded-lex,
    and an entry is coeff * prod perm(e_k, d_k) for a term coeff*x^e and a
    degree-i divisor x^d of it, at (row d, column e-d): the enumerator's
    integer entry divided by its scale D."""
    c = _require_homogeneous(f)
    [(matrix, _, order)] = _placed_catalecticant(f, c, i, i)
    at = [_glex_rank_of_key(key, c + 1, f.nvars) for key in order]
    return CatMatrix(
        degree=i,
        matrix=RatMatrix._of(matrix.rows, dim_of_degree(f.nvars, c - i), {
            (r, at[j]): v for (r, j), v in matrix.items()
        }),
        row_monomials=tuple(monomials_of_degree(f.nvars, i)),
        col_monomials=tuple(monomials_of_degree(f.nvars, c - i)),
    )


@dataclass(frozen=True)
class Symmetry:
    """A torus grading and signed variable permutations offered as
    symmetries of F: ``weights[k]`` is variable k's weight vector of
    non-negative ints, and a generator sends variable k to
    ``sign * x_image`` for its k-th pair (image, sign) of ints.
    ``hilbert_function`` checks every claim exactly."""

    weights: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[tuple[int, int], ...], ...]


def _coordinate_perm(
    gen: tuple[tuple[int, int], ...],
    weights: tuple[tuple[int, ...], ...],
    terms: dict[Monomial, Fraction],
) -> list[int]:
    """The weight-coordinate permutation tau of a signed variable
    permutation sigma (weight[image k][tau a] = weight[k][a] for all k, a),
    after checking that sigma is one and maps F to +F or -F."""
    nvars, dims = len(weights), len(weights[0])
    if (
        not all(type(pair) is tuple and len(pair) == 2
                and all(type(v) is int for v in pair) for pair in gen)
        or sorted(image for image, _ in gen) != list(range(nvars))
        or any(sign not in (1, -1) for _, sign in gen)
    ):
        raise InvariantError(
            "a symmetry generator is not a signed variable permutation"
        )
    columns: dict[tuple[int, ...], list[int]] = {}
    for b in range(dims):
        columns.setdefault(tuple(w[b] for w in weights), []).append(b)
    tau = []
    for a in range(dims):
        moved = [0] * nvars
        for w, (image, _) in zip(weights, gen):
            moved[image] = w[a]
        match = columns.get(tuple(moved))
        if not match:
            raise InvariantError(
                "a symmetry generator does not permute the weight coordinates"
            )
        tau.append(match.pop())
    mapped = {}
    for expo, coeff in terms.items():
        out = [0] * nvars
        negate = False
        for e, (image, sign) in zip(expo, gen):
            out[image] = e
            if sign < 0 and e % 2:
                negate = not negate
        mapped[tuple(out)] = -coeff if negate else coeff
    if mapped != terms and mapped != {e: -v for e, v in terms.items()}:
        raise InvariantError("a symmetry generator does not map F to +F or -F")
    return tau


def _weight_orbits(f: Poly, c: int, symmetry: Symmetry):
    """Each variable's additive weight key, the bits of one weight
    coordinate in a key, the orbit table, its ``close``, and the coordinate
    transpositions found in the group.  A row weight key maps to its
    orbit's size when it is the least key of its orbit under the generated
    coordinate group, else to 0; ``close`` fills the table for a new key's
    whole orbit and returns its entry.  The symmetry is checked exactly
    first: F must be weight-homogeneous and each generator a signed
    variable permutation that permutes the weight coordinates and maps F
    to +F or -F."""
    weights = symmetry.weights
    if (
        len(weights) != f.nvars
        or not all(type(w) is tuple and w for w in weights)
        or len({len(w) for w in weights}) != 1
        # bool, float and Fraction weights included
        or any(type(v) is not int or v < 0 for w in weights for v in w)
    ):
        raise InvariantError(
            "symmetry weights must be one non-negative vector per variable"
        )
    # a degree <= c monomial's weight has coordinates below wbase
    bits = (c * max(max(w) for w in weights)).bit_length()
    wbase = 1 << bits
    keys = [_weight_key(w, wbase) for w in weights]
    terms = dict(f.terms())
    if len({sum(e * k for e, k in zip(expo, keys)) for expo in terms}) > 1:
        raise InvariantError("F is not homogeneous for the symmetry's weights")
    taus = [_coordinate_perm(gen, weights, terms) for gen in symmetry.generators]
    # tau on a key: the fixed coordinates' bits are kept as they are, and
    # each moved coordinate's field is shifted from a * bits to tau(a) * bits
    mask = wbase - 1
    moves = [(
        sum(mask << a * bits for a, b in enumerate(tau) if a == b),
        [(a * bits, b * bits) for a, b in enumerate(tau) if a != b],
    ) for tau in taus]
    table: dict[int, int] = {}

    def close(key: int) -> int:
        orbit, todo = {key}, [key]
        while todo:
            v = todo.pop()
            for keep, moved in moves:
                k = v & keep
                for a, b in moved:
                    k |= (v >> a & mask) << b
                if k not in orbit:
                    orbit.add(k)
                    todo.append(k)
        for k in orbit:
            table[k] = 0
        table[min(orbit)] = len(orbit)
        return table[key]

    # The generators' transpositions, closed under conjugation by the
    # generators (tau (a b) tau^-1 = (tau a, tau b)): each is in the group.
    swaps = set()
    for tau in taus:
        moved = [a for a, b in enumerate(tau) if a != b]
        if len(moved) == 2:
            swaps.add(tuple(moved))
    todo = list(swaps)
    while todo:
        a, b = todo.pop()
        for tau in taus:
            swap = tuple(sorted((tau[a], tau[b])))
            if swap not in swaps:
                swaps.add(swap)
                todo.append(swap)
    return keys, bits, table, close, sorted(swaps)


def _walk_plan(f: Poly, c: int, symmetry: Symmetry | None):
    """What ``hilbert_function`` walks with: the variables' key steps, the
    shift of the row weight bits in a key (mu >> shift), the orbit table
    and its ``close``, and the walk's per-variable (cap, check) pair.

    Without a symmetry the steps are monomial keys, the table {0: 1} keeps
    every row, and there are no caps.  With one, a step also carries the
    variable's weight key above ``shift``, and the cut is the one the
    module docstring argues for, coordinate a being final at variable k
    when no variable after k touches it.  check[k] lists the
    transpositions (a b) whose a variable k makes final; the walk tests
    them after variable k when the term has it (a separate pass costs
    more than it saves otherwise).  cap[k] holds d_k to
    (w_a - w_b) // weight_k[b] for each b that variable k raises and each
    a final before k, keeping only those a with no transposition (a a2) to
    another such a2, as the checks have mostly made w_a >= w_a2 already.
    Any subset of these cuts is sound.  Entries are (bit of w_a, bit of
    w_b, weight_k[b], coordinate mask) and (bit of w_a, bit of w_b, mask)."""
    steps = _steps(c + 1, f.nvars)
    # keys carry the row weight above the monomial bits: mu >> shift
    shift = ((c + 1) ** f.nvars).bit_length()
    if symmetry is None:
        return steps, shift, {0: 1}, None, None
    weight_keys, bits, table, close, swaps = _weight_orbits(f, c, symmetry)
    steps = [s + (k << shift) for s, k in zip(steps, weight_keys)]
    weights, mask = symmetry.weights, (1 << bits) - 1
    dims = len(weights[0])
    last = [  # the last variable touching each weight coordinate
        max((k for k, w in enumerate(weights) if w[a]), default=-1)
        for a in range(dims)
    ]
    ordered = set(swaps)
    caps = []
    for k, w in enumerate(weights):
        cap = []
        for b in range(dims):
            if w[b]:
                tops = [a for a in range(dims) if last[a] < k and (a, b) in ordered]
                cap += [
                    (shift + a * bits, shift + b * bits, w[b], mask)
                    for a in tops
                    if not any((a, a2) in ordered for a2 in tops)
                ]
        check = [
            (shift + a * bits, shift + b * bits, mask)
            for a, b in swaps
            if last[a] == k
        ]
        caps.append((tuple(cap), tuple(check)))
    return steps, shift, table, close, caps


def _dense_rows(nrows: int, ncols: int, entries: dict) -> list[list[int]]:
    """The block's entries as dense rows along its shorter side: the
    transpose when it has more rows than columns, which keeps the rank."""
    if nrows <= ncols:
        dense = [[0] * ncols for _ in range(nrows)]
        for (r, j), v in entries.items():
            dense[r][j] = v
    else:
        dense = [[0] * nrows for _ in range(ncols)]
        for (r, j), v in entries.items():
            dense[j][r] = v
    return dense


def hilbert_function(f: Poly, symmetry: Symmetry | None = None) -> HilbertFn:
    """h_i = rank of the degree-i catalecticant, one independent exact rank
    per degree.  Gorenstein symmetry of the result is asserted, not assumed.

    Each rank is taken on the enumerator's integer entries (D times the
    catalecticant, the same rank), rows and columns numbered by key in the
    order first seen, so no monomial label is listed.

    With ``symmetry`` (checked exactly; any failure raises InvariantError)
    the catalecticant splits into torus-weight blocks, and a signed
    variable permutation fixing F up to sign maps the block of row weight w
    onto that of tau(w), with the same rank.  Only the block whose row
    weight has the least key of its orbit is built, and h_i sums orbit
    size times rank.  Each such block is ranked by ``dense_rank`` on dense
    rows along its shorter side (``_dense_rows``).  The walk is capped
    (``_walk_plan``) so that it makes few of the other rows at all.
    Without it, every degree is one matrix, ranked by ``mat_rank``."""
    c = _require_homogeneous(f)
    steps, shift, table, close, caps = _walk_plan(f, c, symmetry)
    _, terms = _integer_terms(f, steps)
    values = [0] * (c + 1)
    # The symmetric path keeps a small share of the entries, so one walk over
    # every degree serves them all; the generic path holds one degree at a
    # time.  Either way each degree is ranked on its own.
    walks = [(0, c)] if symmetry is not None else [(i, i) for i in range(c + 1)]
    for low, high in walks:
        # blocks[deg - low]: the blocks of degree deg, low <= deg <= high
        blocks: list[dict[int, tuple[dict, dict, dict]]] = [
            {} for _ in range(low, high + 1)
        ]
        for expo, whole, value in terms:
            for mu, deg, entry in _divisors(expo, steps, low, high, value, caps):
                w = mu >> shift
                size = table.get(w)
                if size is None:
                    size = close(w)
                if size:
                    block = blocks[deg - low].get(w)
                    if block is None:
                        block = blocks[deg - low][w] = ({}, {}, {})
                    row_at, col_at, entries = block
                    r = row_at.setdefault(mu, len(row_at))
                    entries[(r, col_at.setdefault(whole - mu, len(col_at)))] = entry
        for deg, by_weight in enumerate(blocks, low):
            for w, (rows, cols, entries) in by_weight.items():
                if symmetry is None:
                    rank = mat_rank(RatMatrix._of(len(rows), len(cols), entries))
                else:
                    rank = dense_rank(_dense_rows(len(rows), len(cols), entries))
                values[deg] += table[w] * rank
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

