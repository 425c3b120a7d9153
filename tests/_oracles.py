"""Independent reference implementations used only by tests.

These deliberately use different algorithms than the package: plain
division-based Gaussian elimination instead of block-split Bareiss,
permutation-sum determinants instead of cofactor expansion, a direct
term-by-term multiplier instead of repeated squaring, a weighted
contraction of their own instead of the package's, catalecticants built row
by row through contraction instead of from the terms of F, SLP ranks from a
power of L instead of a chain of contractions, and higher-Hessian entries
from a product of basis monomials instead of a row of a catalecticant.
"""

from fractions import Fraction
from itertools import permutations
from math import perm

from lefkit.exactmath import RatMatrix
from lefkit.polyring import Poly, monomials_of_degree


def naive_rank(rows):
    """Rank by textbook Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def perm_det_frac(rows):
    """Determinant as the signed sum over permutations (Fraction entries)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= Fraction(rows[i][j])
            if not term:
                break
        total += perm_sign(perm) * term
    return total


def perm_det_poly(rows, nvars):
    """Determinant of a matrix of Poly entries by permutation expansion."""
    n = len(rows)
    total = Poly.zero(nvars)
    for perm in permutations(range(n)):
        term = Poly.one(nvars)
        for i, j in enumerate(perm):
            term = naive_mul(term, rows[i][j])
            if term.is_zero():
                break
        total = total + (term if perm_sign(perm) > 0 else -term)
    return total


def naive_mul(a, b):
    """Direct convolution of term dicts, no squaring tricks."""
    terms = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            expo = tuple(x + y for x, y in zip(ea, eb))
            terms[expo] = terms.get(expo, Fraction(0)) + ca * cb
    return Poly(a.nvars, {e: c for e, c in terms.items() if c})


def naive_pow(a, s):
    out = Poly.one(a.nvars)
    for _ in range(s):
        out = naive_mul(out, a)
    return out


def naive_contract(p, f, weights=None):
    """p applied to f as a differential operator in which variable k acts
    as weights[k] * d/dx_k (as d/dx_k without weights)."""
    weights = weights or [1] * f.nvars
    terms = {}
    for ep, cp in p.terms():
        for ef, cf in f.terms():
            if any(a < b for a, b in zip(ef, ep)):
                continue
            coeff = cp * cf
            for a, b, w in zip(ef, ep, weights):
                coeff *= perm(a, b) * Fraction(w) ** b
            expo = tuple(a - b for a, b in zip(ef, ep))
            terms[expo] = terms.get(expo, Fraction(0)) + coeff
    return Poly(f.nvars, {e: c for e, c in terms.items() if c})


def naive_catalecticant(f, i, weights=None):
    """The degree-i catalecticant matrix of homogeneous f, one row per
    degree-i monomial: the coefficients of (row monomial) contracted
    against f, with weighted contraction when weights are given."""
    c = f.homogeneous_degree()
    rows = monomials_of_degree(f.nvars, i)
    col_index = {m: k for k, m in enumerate(monomials_of_degree(f.nvars, c - i))}
    entries = {}
    for r, mono in enumerate(rows):
        image = naive_contract(Poly.monomial(f.nvars, mono), f, weights)
        for expo, coeff in image.terms():
            entries[(r, col_index[expo])] = coeff
    return RatMatrix(len(rows), len(col_index), entries)


def naive_achieved_ranks(f, L):
    """The achieved SLP ranks, i = 0..floor(c/2): the rank of the degree-i
    catalecticant of L^(c-2i) contracted against f, with L^(c-2i) built as
    a power of L."""
    c = f.homogeneous_degree()
    ranks = []
    for i in range(c // 2 + 1):
        shifted = naive_contract(naive_pow(L, c - 2 * i), f)
        if shifted.is_zero():
            ranks.append(0)
        else:
            ranks.append(naive_rank(naive_catalecticant(shifted, i).dense()))
    return ranks


def naive_higher_hessian(f, basis):
    """The higher Hessian of f over degree-i basis monomials b: entry (j, k)
    is b_j * b_k contracted against f."""
    polys = [Poly.monomial(f.nvars, b) for b in basis]
    return [[naive_contract(naive_mul(bj, bk), f) for bk in polys] for bj in polys]


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
