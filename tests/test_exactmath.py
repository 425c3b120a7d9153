import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefkit.errors import BadPrimeError
from lefkit.exactmath import (
    PROBE_PRIME,
    RatMatrix,
    _fraction_free_echelon,
    identity_matrix,
    mat_det,
    mat_kernel,
    mat_rank,
    mat_rank_modular_probe,
    pivot_rows,
)

from _oracles import is_prime, naive_rank, perm_det_frac


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
        assert m.mul_vector(list(v)) == [0, 0]
    assert mat_rank(m) + len(mat_kernel(m)) == 3


def test_probe_identity():
    assert mat_rank_modular_probe(identity_matrix(2), 5) == 2


def test_probe_is_only_a_lower_bound():
    m = RatMatrix.from_rows([[5, 0], [0, 5]])
    assert mat_rank_modular_probe(m, 5) == 0
    assert mat_rank(m) == 2


def test_probe_proportional_rows():
    assert mat_rank_modular_probe(RatMatrix.from_rows([[1, 2], [2, 4]]), 7) == 1


def test_probe_bad_prime():
    m = RatMatrix.from_rows([[Fraction(1, 5)]])
    with pytest.raises(BadPrimeError):
        mat_rank_modular_probe(m, 5)


def test_fixed_probe_prime_is_62_bit_prime():
    assert (1 << 61) <= PROBE_PRIME < (1 << 62)
    assert is_prime(PROBE_PRIME)


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
    with pytest.raises(BadPrimeError):
        mat_rank_modular_probe(RatMatrix.from_rows(rows), p)
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
        assert all(x == 0 for x in m.mul_vector(list(v)))


@settings(max_examples=40, deadline=None)
@given(small_matrices)
def test_bareiss_stays_integral_on_integer_input(rows):
    # _fraction_free_echelon raises InvariantError if any division is inexact
    ech = _fraction_free_echelon(RatMatrix.from_rows(rows))
    for row in ech.matrix[: ech.rank]:
        assert all(isinstance(x, int) for x in row)


def test_probe_usually_attains_exact_rank():
    primes = (PROBE_PRIME, (1 << 61) - 1, (1 << 31) - 1, 10**9 + 7, 998_244_353)
    assert all(is_prime(p) for p in primes)
    rng = random.Random(3)
    misses = 0
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        m = RatMatrix.from_rows(rows)
        exact = mat_rank(m)
        hits = 0
        for p in primes:
            probe = mat_rank_modular_probe(m, p)
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
    blocks = [_block(draw, k == bad) for k in range(count)]
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
