import random
import warnings
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefkit import exactmath
from lefkit.errors import InvariantError
from lefkit.exactmath import (
    PROBE_PRIME,
    RatMatrix,
    _blocks,
    _echelon,
    _rank_mod_p,
    _Slots,
    dense_rank,
    mat_det,
    mat_kernel,
    mat_rank,
    pivot_rows,
)

from _oracles import (
    connected_components,
    fraction_free_echelon,
    identity_matrix,
    is_prime,
    mul_vector,
    naive_det,
    naive_rank,
    naive_rank_mod_p,
    oracle_kernel,
    oracle_pivot_rows,
    perm_det_frac,
)


def test_rank_identity():
    assert mat_rank(identity_matrix(2)) == 2


def test_rank_zero_matrix():
    assert mat_rank(RatMatrix(3, 5)) == 0


def test_rank_proportional_rows():
    m = RatMatrix.from_rows([[1, 2], [2, 4]])
    assert mat_rank(m) == 1


def test_rank_rational_entries():
    m = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert mat_rank(m) == naive_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])


def test_kernel_identity_empty():
    assert mat_kernel(identity_matrix(2)) == []


def test_kernel_one_by_two():
    (v,) = mat_kernel(RatMatrix.from_rows([[1, 1]]))
    assert v[0] * (-1) == v[1] and v[0] != 0


def test_kernel_proportional_rows():
    (v,) = mat_kernel(RatMatrix.from_rows([[1, 2], [2, 4]]))
    # proportional to (2, -1)
    assert v[0] * (-1) == 2 * v[1] and any(v)


def test_kernel_vectors_annihilate():
    m = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    for v in mat_kernel(m):
        assert mul_vector(m, list(v)) == [0, 0]
    assert mat_rank(m) + len(mat_kernel(m)) == 3


def test_probe_identity():
    assert _kernel_rank([[1, 0], [0, 1]], 5) == 2


def test_probe_is_only_a_lower_bound():
    rows = [[5, 0], [0, 5]]
    assert _kernel_rank(rows, 5) == 0
    assert mat_rank(RatMatrix.from_rows(rows)) == 2


def test_probe_proportional_rows():
    assert _kernel_rank([[1, 2], [2, 4]], 7) == 1


def test_fixed_probe_prime_is_one_digit_prime():
    # Below 2^30 every residue and multiplier is one 30-bit CPython digit;
    # the prime is the largest there.
    assert PROBE_PRIME < (1 << 30)
    assert is_prime(PROBE_PRIME)
    assert not any(is_prime(n) for n in range(PROBE_PRIME + 1, 1 << 30))


def test_rank_sums_blocks_with_bad_prime_block():
    p = PROBE_PRIME
    # rows 0, 2 x cols 1, 2: rank-deficient, denominator divisible by p;
    # row 1 x col 0: a 1x1 block; row 3 and col 3 are empty
    rows = [
        [0, Fraction(1, p), 1, 0],
        [7, 0, 0, 0],
        [0, 1, p, 0],
        [0, 0, 0, 0],
    ]
    assert mat_rank(RatMatrix.from_rows(rows)) == naive_rank(rows) == 2


def test_det_small():
    assert mat_det(RatMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert mat_det(RatMatrix.from_rows([[1, 2], [2, 4]])) == 0
    assert mat_det(identity_matrix(3)) == 1


def test_det_rational_matches_permutation_expansion():
    rng = random.Random(11)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            for _ in range(4)
        ]
        assert mat_det(RatMatrix.from_rows(rows)) == perm_det_frac(rows)


def test_transpose_and_entry():
    m = RatMatrix.from_rows([[0, 1], [2, 0], [0, 3]])
    t = m.transpose()
    assert (t.rows, t.cols) == (2, 3)
    assert t.entry(1, 2) == 3 and m.entry(2, 1) == 3


def test_pivot_rows_are_independent():
    m = RatMatrix.from_rows([[1, 2], [2, 4], [0, 1]])
    rows = pivot_rows(m)
    assert len(rows) == 2
    dense = m.dense()
    assert naive_rank([dense[r] for r in rows]) == 2


small_matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_rank_invariant_under_row_ops(rows, rng):
    m = RatMatrix.from_rows(rows)
    base = mat_rank(m)
    assert base == naive_rank(rows)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    permuted = [[row[c] for c in cols] for row in shuffled]
    scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    permuted[0] = [scale * x for x in permuted[0]]
    assert mat_rank(RatMatrix.from_rows(permuted)) == base


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_plus_kernel_dimension(rows):
    m = RatMatrix.from_rows(rows)
    kernel = mat_kernel(m)
    assert mat_rank(m) + len(kernel) == m.cols
    for v in kernel:
        assert all(x == 0 for x in mul_vector(m, list(v)))


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_bareiss_stays_integral_on_integer_input(rows):
    # _echelon raises InvariantError if any division is inexact
    m = RatMatrix.from_rows(rows)
    ech = _echelon(_blocks(m)[0])
    assert len(ech.pivots) == naive_rank(rows)
    for _, c, row in ech.pivots:
        assert row[c] and all(isinstance(x, int) for x in row.values())


def test_probe_usually_attains_exact_rank():
    primes = (PROBE_PRIME, (1 << 61) - 1, (1 << 31) - 1, 10**9 + 7, 998_244_353)
    assert all(is_prime(p) for p in primes)
    rng = random.Random(3)
    misses = 0
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        exact = mat_rank(RatMatrix.from_rows(rows))
        hits = 0
        for p in primes:
            probe = _kernel_rank(rows, p)
            assert probe <= exact
            hits += probe == exact
        if hits == 0:
            misses += 1
    if misses:
        # vanishing-probability event; spec says log, don't fail
        warnings.warn(f"modular probe missed the exact rank on {misses} matrices")


def _block(draw, bad_prime):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    inner = draw(st.integers(1, min(rows, cols)))  # rank at most inner
    entry = st.integers(-3, 3)
    left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    block = [
        [Fraction(sum(a * b for a, b in zip(row, col))) for col in zip(*right)]
        for row in left
    ]
    if bad_prime:
        block[0][0] = Fraction(1, PROBE_PRIME)
    return block


@st.composite
def shuffled_block_diagonal(draw):
    count = draw(st.integers(1, 4))
    bad = draw(st.integers(0, count))  # index count: no bad-prime block
    return _shuffled_diagonal(draw, [_block(draw, k == bad) for k in range(count)])


def _shuffled_diagonal(draw, blocks):
    """The block-diagonal matrix of ``blocks`` with rows and columns
    shuffled."""
    nrows = sum(len(b) for b in blocks)
    ncols = sum(len(b[0]) for b in blocks)
    dense = [[Fraction(0)] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            dense[r0 + i][c0 : c0 + len(row)] = row
        r0, c0 = r0 + len(b), c0 + len(b[0])
    row_order = draw(st.permutations(range(nrows)))
    col_order = draw(st.permutations(range(ncols)))
    return [[dense[i][j] for j in col_order] for i in row_order]


@settings(max_examples=100, deadline=None)
@given(shuffled_block_diagonal())
def test_rank_of_shuffled_block_diagonal_matches_naive(rows):
    assert mat_rank(RatMatrix.from_rows(rows)) == naive_rank(rows)


# Small entries with many equal bit lengths, so that the pivot choice keeps
# running into ties that only the other blocks' pivots (or positions) break.
TIE_PRONE = [Fraction(x) for x in (0, 0, 1, -1, 2, -2, 3, -3, 5)] + [
    Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(5, 3)
]


def _tie_prone_block(draw, rows, cols):
    entry = st.sampled_from(TIE_PRONE)
    if draw(st.booleans()):  # a product of thin factors: often rank-deficient
        inner = draw(st.integers(1, min(rows, cols)))
        left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
        return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                for row in left]
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@st.composite
def low_rank_products(draw):
    """A * B for integer A (rows x inner) and B (inner x cols), so of rank
    at most inner, with some rows of A and columns of B zeroed; factor
    entries up to 2^20 in size, so products reach about 2^40."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    inner = draw(st.integers(0, min(rows, cols)))
    bound = draw(st.sampled_from([1, 9, 1 << 20]))
    entry = st.integers(-bound, bound)
    left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    for i in draw(st.sets(st.integers(0, rows - 1))):
        left[i] = [0] * inner
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in right:
            row[j] = 0
    return [[sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


@settings(max_examples=300, deadline=None)
@given(low_rank_products())
def test_dense_rank_matches_naive_rank(rows):
    copy = [row[:] for row in rows]
    rank = dense_rank(rows)
    assert rank == naive_rank(rows)
    assert dense_rank([list(col) for col in zip(*rows)]) == rank
    assert rows == copy  # the input is not modified


@pytest.mark.parametrize("rows,rank", [
    ([], 0),
    ([[0]], 0),
    ([[0, 0, 0]], 0),
    ([[0], [0], [0]], 0),
    ([[-7]], 1),
    ([[0, 0, 3]], 1),
    ([[0], [2], [0]], 1),
    ([[1 << 40, -(1 << 40)], [-(1 << 40), 1 << 40]], 1),
    ([[1 << 40, 1], [1, 1 << 40], [1, 1]], 2),
])
def test_dense_rank_edge_shapes(rows, rank):
    assert dense_rank(rows) == rank == naive_rank(rows)


@st.composite
def tie_prone_block_diagonal(draw, square=False):
    if square:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
            lambda s: sum(s) <= 7))
        shapes = [(k, k) for k in sizes]
    else:
        shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                               min_size=1, max_size=4))
    return _shuffled_diagonal(draw, [_tie_prone_block(draw, r, c) for r, c in shapes])


@settings(max_examples=300, deadline=None)
@given(tie_prone_block_diagonal())
def test_block_elimination_matches_whole_matrix_oracle(rows):
    m = RatMatrix.from_rows(rows)
    assert pivot_rows(m) == oracle_pivot_rows(m)
    assert mat_kernel(m) == oracle_kernel(m)


@settings(max_examples=200, deadline=None)
@given(tie_prone_block_diagonal())
def test_blocks_are_the_connected_components(rows):
    m = RatMatrix.from_rows(rows)
    found, scale = _blocks(m)
    blocks = [{(i, j) for i, row in b.items() for j in row} for b, _ in found]
    nonzero = {pos for pos, _ in m.items()}
    # every nonzero entry lies in exactly one block
    assert sorted(pos for b in blocks for pos in b) == sorted(nonzero)
    # each block row is m's row times the lcm of its denominators, in ints;
    # the scale is the product of those lcms
    dense = m.dense()
    lcms = {i: lcm(*(Fraction(v).denominator for v in dense[i])) for i, _ in nonzero}
    for b, _ in found:
        for i, row in b.items():
            assert row == {j: v * lcms[i] for j, v in enumerate(dense[i]) if v}
            assert all(type(v) is int for v in row.values())
    assert scale == prod(lcms.values())
    # each block lists its columns, each once
    for (_, block_cols), b in zip(found, blocks):
        assert sorted(block_cols) == sorted({j for _, j in b})
    # no two blocks share a row or a column
    block_rows = [{i for i, _ in b} for b in blocks]
    block_cols = [{j for _, j in b} for b in blocks]
    assert sum(map(len, block_rows)) == len(set().union(*block_rows))
    assert sum(map(len, block_cols)) == len(set().union(*block_cols))
    # each block is connected, so the blocks are the BFS components
    assert all(len(connected_components(b)) == 1 for b in blocks)
    assert sorted(map(sorted, blocks)) == sorted(
        map(sorted, connected_components(nonzero))
    )


MOD_PRIMES = (PROBE_PRIME, (1 << 61) - 1, 7)


@st.composite
def probe_case(draw):
    """A prime and a matrix for it: often a thin product (rank-deficient),
    with entries that are negative, at least p, or Fractions."""
    p = draw(st.sampled_from(MOD_PRIMES))
    entry = st.one_of(
        st.integers(-9, 9),
        st.builds(lambda k, q: k + q * p, st.integers(-3, 3), st.integers(-2, 2)),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    )
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        inner = draw(st.integers(1, min(rows, cols)))
        left = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
        return p, [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                   for row in left]
    return p, [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(probe_case())
def test_rank_with_probe_prime_matches_naive(case):
    # The block probe at the drawn prime: at 7 it often falls short, and
    # then the elimination decides.
    p, rows = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactmath, "PROBE_PRIME", p)
        assert mat_rank(RatMatrix.from_rows(rows)) == naive_rank(rows)


@settings(max_examples=150, deadline=None)
@given(tie_prone_block_diagonal(square=True))
def test_block_determinant_matches_permutation_expansion(rows):
    m = RatMatrix.from_rows(rows)
    assert mat_det(m) == perm_det_frac(rows)
    assert pivot_rows(m) == oracle_pivot_rows(m)


def _numbers(x):
    """Every number inside x, through the values of dicts and the items of
    lists and tuples."""
    if isinstance(x, dict):
        x = x.values()
    elif not isinstance(x, (list, tuple)):
        return [x]
    return [n for y in x for n in _numbers(y)]


def _check_int_only(rows, patch):
    """Rank, pivot rows, kernel and (when square) determinant of ``rows``
    against the oracles, with ``_echelon`` and ``_rank_mod_p`` asserting
    that every entry or residue they are given is an int."""
    echelon, rank_mod_p = exactmath._echelon, exactmath._rank_mod_p

    def int_echelon(blocks):
        assert all(type(n) is int for n in _numbers(blocks))
        return echelon(blocks)

    def int_rank_mod_p(probe_rows, slots):
        probe_rows = list(probe_rows)
        assert all(type(n) is int for n in probe_rows)
        return rank_mod_p(probe_rows, slots)

    patch.setattr(exactmath, "_echelon", int_echelon)
    patch.setattr(exactmath, "_rank_mod_p", int_rank_mod_p)
    m = RatMatrix.from_rows(rows)
    assert mat_rank(m) == naive_rank(rows)
    assert pivot_rows(m) == oracle_pivot_rows(m)
    assert mat_kernel(m) == oracle_kernel(m)
    if m.rows == m.cols <= 7:  # small enough to expand over permutations
        assert mat_det(m) == perm_det_frac(rows)


@pytest.mark.parametrize("rows", [
    # rows 0, 2 x cols 1, 2 and row 1 x col 0; row 0's lcm is PROBE_PRIME
    [[0, Fraction(1, PROBE_PRIME), 1], [7, 0, 0], [0, 1, PROBE_PRIME]],
    # square, so a determinant; the lcms are 2p, 3 and 1
    [[Fraction(1, 2 * PROBE_PRIME), Fraction(1, 2), 0],
     [Fraction(2, 3), 1, 0],
     [0, 0, 5]],
    # rank-deficient, with a denominator p^2
    [[Fraction(1, PROBE_PRIME ** 2), 1], [1, PROBE_PRIME ** 2]],
])
def test_elimination_and_probe_see_only_ints_on_probe_prime_denominators(rows):
    with pytest.MonkeyPatch.context() as patch:
        _check_int_only(rows, patch)


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda square: tie_prone_block_diagonal(square=square)))
def test_elimination_and_probe_see_only_ints_on_rational_blocks(rows):
    with pytest.MonkeyPatch.context() as patch:
        _check_int_only(rows, patch)


def test_pivot_rows_replay_a_foreign_pivot():
    # After the pivot 3 of the first block, the whole-matrix entries of
    # column 1 are 9 and 6: the shorter one, row 2, wins, although the
    # block's own entries 3 and 2 tie in bit length.
    m = RatMatrix.from_rows([[3, 0], [0, 3], [0, 2]])
    assert pivot_rows(m) == oracle_pivot_rows(m) == [0, 2]


@st.composite
def sparse_block_diagonal(draw, square=False):
    """A shuffled block-diagonal matrix whose rows are mostly zero, so that
    most rows of a block sit out most of its pivots; some entries are
    Fractions."""
    entry = st.sampled_from([Fraction(0)] * 10 + TIE_PRONE)
    if square:
        sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
            lambda s: sum(s) <= 7))
        shapes = [(k, k) for k in sizes]
    else:
        shapes = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                               min_size=1, max_size=3))
    return _shuffled_diagonal(
        draw, [[[draw(entry) for _ in range(c)] for _ in range(r)] for r, c in shapes])


@settings(max_examples=300, deadline=None)
@given(st.booleans().flatmap(lambda square: sparse_block_diagonal(square=square)))
def test_lazy_elimination_on_mostly_zero_rows_matches_oracles(rows):
    m = RatMatrix.from_rows(rows)
    assert pivot_rows(m) == oracle_pivot_rows(m)
    assert mat_kernel(m) == oracle_kernel(m)
    assert mat_rank(m) == len(_echelon(_blocks(m)[0]).pivots) == naive_rank(rows)
    if m.rows == m.cols:  # the permutation expansion only while it is small
        oracle = perm_det_frac if m.rows <= 7 else naive_det
        assert mat_det(m) == oracle(rows)


def _counting_divmod(patch):
    """Patch the elimination's divmod to record each divisor it is given."""
    divisors = []

    def counting(a, b):
        divisors.append(b)
        return divmod(a, b)

    patch.setattr(exactmath, "divmod", counting, raising=False)
    return divisors


def test_row_that_sits_out_two_pivots_is_caught_up(monkeypatch):
    # One block.  Row 0 pivots column 0 and updates row 1; row 1 pivots
    # column 1; row 2, zero in both columns, sits out both pivots.  At
    # column 2 it is caught up in one step, -1 / 1 times its entries, and
    # becomes the eager elimination's echelon row [0, 0, -5, -7].
    rows = [[2, 1, 0, 3], [3, 1, 0, 1], [0, 0, 5, 7]]
    m = RatMatrix.from_rows(rows)
    divisors = _counting_divmod(monkeypatch)
    ech = _echelon(_blocks(m)[0])
    eager = fraction_free_echelon(m)
    assert [(p, c) for p, c, _ in ech.pivots] == [(0, 0), (1, 1), (2, 2)]
    assert eager.pivot_source_rows == [0, 1, 2]
    for k, (_, _, row) in enumerate(ech.pivots):
        assert row == {j: v for j, v in enumerate(eager.matrix[k]) if v}
    assert ech.pivots[2][2] == {2: -5, 3: -7}
    # row 1's update (2 entries), then row 2's catch-up (2 entries); the
    # eager elimination also rescales row 2 at both earlier pivots
    assert divisors == [1, 1, 1, 1]


def test_inexact_catch_up_is_an_invariant_failure(monkeypatch):
    # Row 0 pivots column 0 (P = 2) and updates row 2; row 1 sits it out
    # and is caught up, by divisions by 1, to pivot column 1 (P = 10); row
    # 2 then sits that pivot out and at column 2 is caught up from P = 2 to
    # P = 10.  Those two divisions are the only ones by 2, so a divmod that
    # reports a remainder for the divisor 2 alone fails the catch-up only.
    rows = [[2, 0, 0, 1], [0, 5, 1, 1], [3, 0, 1, 0]]
    m = RatMatrix.from_rows(rows)
    with pytest.MonkeyPatch.context() as patch:
        divisors = _counting_divmod(patch)
        assert pivot_rows(m) == oracle_pivot_rows(m) == [0, 1, 2]
    assert divisors == [1, 1, 1, 1, 1, 2, 2]
    monkeypatch.setattr(exactmath, "divmod",
                        lambda a, b: (a // b, 1) if b == 2 else divmod(a, b),
                        raising=False)
    with pytest.raises(InvariantError, match="lost integrality"):
        pivot_rows(m)


# 10**9 + 7 and 998_244_353 sit far below 2^30, so c = 2^30 - p is about
# 2^26 and each fold drops only about 4 bits: they need the most folds.
KERNEL_PRIMES = (2, 3, 7, PROBE_PRIME, 10**9 + 7, 998_244_353, (1 << 61) - 1)


def _kernel_rank(dense, p):
    """The packed kernel's rank of a dense integer matrix mod p, each row
    packed by the slot layout of p and the matrix's shape."""
    slots = _Slots(p, len(dense), len(dense[0]))
    rows = slots.pack((range(len(row)), slots.encode(row)) for row in dense)
    return _rank_mod_p(rows, slots)


def _max_growth(r, p):
    """r + 1 rows, each column's pivot chosen in turn: r pivot rows of ones
    on and above the diagonal, then a row that every pivot updates with the
    largest multiplier p - 1 times tail residues p - 1.  So its last slot
    gains (p - 1)^2 at each of the r updates, the most any slot can, and
    ends at 0 mod p: a slot too narrow for it turns the rank r into r + 1."""
    pivots = [[0] * k + [1] * (r + 1 - k) for k in range(r)]
    return pivots + [[(-1 - k) % p for k in range(r)] + [-r % p]]


def _chained_growth(r, p):
    """r + 1 rows whose elimination mod p subtracts every pivot row from
    every later row: row i is the sum of rows 0..i of an upper triangle of
    p - 1's, and row r repeats row r - 1.  So each pivot row is updated by
    every earlier pivot before it is chosen, and its slots have grown past
    p when it is folded; every multiplier is p - 1, and the last row ends
    at 0 mod p in every slot, so a slot that carries turns the rank r into
    r + 1."""
    triangle = [[0] * t + [p - 1] * (r + 1 - t) for t in range(r)]
    rows = [[sum(col) % p for col in zip(*triangle[:i + 1])] for i in range(r)]
    return rows + [rows[-1]]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_folds_take_every_slot_below_4r(p):
    # A packed row whose slots are all at their widest, 2^width - 1, or
    # random below that: after slots.folds folds every slot is below 4R
    # and keeps its residue mod p, with no carry between slots.  The width
    # holds a slot's bound, p + min(rows, cols) * p * 4R.
    rng, k = random.Random(p), p.bit_length()
    for nrows, ncols in [(1, 1), (21, 21), (946, 40), (40, 3)]:
        slots = _Slots(p, nrows, ncols)
        width = slots.width
        assert 1 << width > p + min(nrows, ncols) * p * (4 << k)
        top = (1 << width) - 1
        widest, mixed = [top] * ncols, [rng.randrange(top + 1) for _ in range(ncols)]
        for values in (widest, mixed):
            row = sum(v << j * width for j, v in enumerate(values))
            for _ in range(slots.folds):
                row = (row & slots.lo) + ((row >> k) & slots.hi) * slots.c
            for v in values:
                slot, row = row & top, row >> width
                assert slot < 4 << k and slot % p == v % p
            assert row == 0
    assert _Slots(PROBE_PRIME, 946, 946).folds == 2


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_packed_kernel_matches_rank_mod_p_oracle(p):
    rng = random.Random(p)
    shapes = [(1, 1), (3, 5), (6, 6), (21, 21), (40, 40), (37, 32),
              (40, 3), (39, 1), (40, 8), (4, 40)]
    for nrows, ncols in shapes:
        inner = rng.randint(1, min(nrows, ncols))  # rank at most inner
        left = [[rng.randrange(p) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randrange(p) for _ in range(ncols)] for _ in range(inner)]
        cases = [
            [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)],
            [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
             for row in left],
            # every entry p - 1, and p - 1 on a random support
            [[p - 1] * ncols for _ in range(nrows)],
            [[rng.choice((0, p - 1)) for _ in range(ncols)] for _ in range(nrows)],
            [[0] * ncols for _ in range(nrows)],
        ]
        for dense in cases:
            assert _kernel_rank(dense, p) == naive_rank_mod_p(dense, p)
    for r in range(1, 13):
        dense = _max_growth(r, p)
        assert _kernel_rank(dense, p) == naive_rank_mod_p(dense, p) == r
    for r in (1, 2, 5, 12, 40):
        dense = _chained_growth(r, p)
        assert _kernel_rank(dense, p) == naive_rank_mod_p(dense, p) == r
