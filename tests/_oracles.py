"""Independent reference implementations used only by tests.

These deliberately use different algorithms than the package: plain
division-based Gaussian elimination (rank and determinant) instead of
block-split Bareiss, a dense elimination mod p over every column with
Fermat inverses instead of the package's modular probe, a breadth-first
search for the connected components of a matrix instead of its block
split, a whole-matrix Bareiss elimination on a dense copy
instead of the package's block-by-block one (the pivot oracle: it defines
the pivot rows and kernel vectors the package must reproduce),
permutation-sum determinants instead of products of block pivots, a direct
term-by-term multiplier instead of repeated squaring, a weighted contraction
of their own instead of the package's, catalecticants built row by row
through contraction instead of from the terms of F, a term's divisors
filtered by degree from the whole box of exponent tuples instead of the
package's pruned walk, SLP ranks from a power of L instead of a chain of
contractions, and higher-Hessian entries from a product of basis monomials
instead of rows built from the terms of F.  The d = 1
representation-theoretic oracles for ``families.predicted_hilbert`` are a
sum of gl_n Weyl dimensions over type-C highest weights, Narayana numbers
and the q_mu product.  A few small helpers the package no longer needs
(identity matrix, matrix-vector product, corner minors, polynomial
evaluation, parsing a polynomial from text) live here too.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb, gcd, lcm, perm

from lefkit.errors import InvalidSpecError, InvariantError, OutOfRangeError
from lefkit.exactmath import RatMatrix
from lefkit.families import FamilyKind, generic_matrix
from lefkit.macaulay import HilbertFn
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


def naive_rank_mod_p(rows, p):
    """Rank of the rows reduced mod the prime p, by dense elimination that
    clears every other row over every column, with Fermat inverses.  Each
    entry is an int or a Fraction whose denominator p does not divide."""
    m = [[Fraction(x).numerator * pow(Fraction(x).denominator, p - 2, p) % p
          for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def connected_components(positions):
    """The connected components of the bipartite graph joining row i to
    column j for each (i, j) in positions, found by breadth-first search,
    each as the set of its positions."""
    at_row, at_col = {}, {}
    for i, j in positions:
        at_row.setdefault(i, []).append((i, j))
        at_col.setdefault(j, []).append((i, j))
    seen, components = set(), []
    for start in positions:
        if start in seen:
            continue
        seen.add(start)
        component, queue = set(), [start]
        while queue:
            i, j = queue.pop(0)
            component.add((i, j))
            for nxt in at_row[i] + at_col[j]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        components.append(component)
    return components


def identity_matrix(n):
    return RatMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})


def mul_vector(m, v):
    """The product m * v of a RatMatrix and a vector."""
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    out = [Fraction(0)] * m.rows
    for (i, j), a in m.items():
        out[i] += a * v[j]
    return out


@dataclass
class Echelon:
    rank: int
    pivots: list  # (echelon row, column), in elimination order
    matrix: list  # integer echelon rows; rows >= rank are zero
    pivot_source_rows: list  # original row index feeding each pivot row


def cleared_integer_rows(m):
    """The dense rows of m, each scaled by the lcm of its denominators.  Row
    scaling changes neither rank nor right kernel."""
    out = []
    for row in m.dense():
        s = lcm(*(v.denominator for v in row)) if row else 1
        out.append([int(v * s) for v in row])
    return out


def fraction_free_echelon(m):
    """Whole-matrix Bareiss elimination with shortest-entry pivoting on a
    dense copy: the pivot oracle.

    Pivot choice: among nonzero candidates in the current column take the
    entry of smallest bit length, ties to the lowest row index (the current
    position, after earlier swaps).  The two-term update divides by the
    previous pivot; exactness of that division is asserted.
    """
    a = cleared_integer_rows(m)
    nrows, ncols = m.rows, m.cols
    source = list(range(nrows))
    pivots = []
    pivot_source_rows = []
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
    return Echelon(r, pivots, a, pivot_source_rows)


def oracle_pivot_rows(m):
    return sorted(fraction_free_echelon(m).pivot_source_rows)


def oracle_kernel(m):
    """Right-kernel basis by back-substitution in the whole-matrix echelon
    form: one vector per free column, made primitive."""
    ech = fraction_free_echelon(m)
    pivot_cols = [c for _, c in ech.pivots]
    basis = []
    for f in (c for c in range(m.cols) if c not in pivot_cols):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for k in range(ech.rank - 1, -1, -1):
            row = ech.matrix[k]
            pc = pivot_cols[k]
            s = sum((row[j] * v[j] for j in range(pc + 1, m.cols)), Fraction(0))
            v[pc] = -s / row[pc]
        mult = lcm(*(x.denominator for x in v))
        ints = [int(x * mult) for x in v]
        g = gcd(*ints)
        basis.append(tuple(Fraction(x // g) for x in ints))
    return basis


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


def naive_det(rows):
    """Determinant by textbook Gaussian elimination over Fraction, with a
    sign flip per row swap: for matrices too large to expand over
    permutations."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


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


def naive_divisors(expo, steps, low, high, value=1, caps=None):
    """(key, degree, value * prod perm(e_k, d_k)) for every divisor x^d of
    x^expo of degree low..high, from the whole box of exponent tuples
    d_k <= e_k in lexicographic order, filtered by degree afterwards; the
    key of d is sum d_k * steps[k].  With ``caps`` (per variable a (cap,
    check) pair, as ``macaulay._divisors`` takes them) a divisor is then
    kept only if it passes them variable by variable, see _passes_caps."""
    out = []
    for d in product(*(range(e + 1) for e in expo)):
        if low <= sum(d) <= high and (
            caps is None or _passes_caps(d, expo, steps, caps)
        ):
            value_d = value
            for e, dk in zip(expo, d):
                value_d *= perm(e, dk)
            out.append((sum(dk * s for dk, s in zip(d, steps)), sum(d), value_d))
    return out


def _passes_caps(d, expo, steps, caps):
    """For each variable k with e_k > 0, in order: d_k is at most
    (w_a - w_b) // wb for each (a, b, wb, m) in its cap, with w_a the
    field (key >> a) & m of the key of d_0..d_{k-1}; then w_a >= w_b for
    each (a, b, m) in its check, on the key of d_0..d_k."""
    key = 0
    for e, dk, step, (cap, check) in zip(expo, d, steps, caps):
        if not e:
            continue
        for a, b, wb, m in cap:
            if dk > (((key >> a) & m) - ((key >> b) & m)) // wb:
                return False
        key += dk * step
        for a, b, m in check:
            if (key >> a) & m < (key >> b) & m:
                return False
    return True


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


def naive_evaluate(p, point):
    """p at a point of rational coordinates, term by term in Fraction
    arithmetic."""
    if len(point) != p.nvars:
        raise ValueError("evaluation point has wrong length")
    total = Fraction(0)
    for expo, coeff in p.terms():
        term = coeff
        for x, e in zip(point, expo):
            term *= Fraction(x) ** e
        total += term
    return total


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


def corner_minor(spec, t):
    """Determinant of the lower-right t x t corner of the generic symmetric
    matrix; these are the highest-weight-vector minors of the symmetric
    family."""
    if spec.kind is not FamilyKind.SYM_DET:
        raise InvalidSpecError("corner minors are defined for sym-det only")
    if not 1 <= t <= spec.size:
        raise OutOfRangeError(f"corner size {t} outside 1..{spec.size}")
    corner = [row[spec.size - t:] for row in generic_matrix(spec)[spec.size - t:]]
    return perm_det_poly(corner, spec.nvars)


_NUMBER_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_poly(text, names):
    """Inverse of ``polyring.format_poly``; accepts integer and p/q
    coefficients, `*` or whitespace between factors, and an optional leading
    sign."""
    index = {name: i for i, name in enumerate(names)}
    nvars = len(names)
    stripped = text.strip()
    if stripped in ("", "0"):
        return Poly.zero(nvars)
    result = Poly.zero(nvars)
    for chunk in stripped.replace("-", "+-").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        negative = chunk.startswith("-")
        if negative:
            chunk = chunk[1:].strip()
        if not chunk:
            raise ValueError(f"dangling sign in polynomial text: {text!r}")
        coeff = Fraction(1)
        expo = [0] * nvars
        for factor in chunk.replace("*", " ").split():
            if _NUMBER_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            expo[index[name]] += int(power) if power else 1
        result = result + Poly.monomial(nvars, expo, -coeff if negative else coeff)
    return result


def weyl_dim_gl(weight):
    """dim V_lambda = prod_{i<j} (lambda_i - lambda_j + j - i) / (j - i)
    for a weakly decreasing integer tuple."""
    lam = tuple(int(x) for x in weight)
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"weight {lam} is not weakly decreasing")
    dim = Fraction(1)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    assert dim.denominator == 1 and dim > 0
    return int(dim)


def weyl_sum_hilbert(n, s):
    """The n x n symmetric determinant's Hilbert function at power s as a sum
    of gl_n Weyl dimensions: one simple summand per exponent tuple
    (k_1, ..., k_n) with k_1 + ... + k_n <= s, in degree k_1 + 2 k_2 + ... +
    n k_n, of highest weight sum k_i lambda_i, where lambda_i has -2 in its
    last i entries (entry p is -2 (k_{n-p+1} + ... + k_n))."""
    values = [0] * (n * s + 1)
    for ks in product(range(s + 1), repeat=n):
        if sum(ks) > s:
            continue
        weight = tuple(-2 * sum(ks[n - p:]) for p in range(1, n + 1))
        values[sum((i + 1) * k for i, k in enumerate(ks))] += weyl_dim_gl(weight)
    return HilbertFn(n * s, tuple(values))


def narayana(n, k):
    """N(n, k) = (1/n) C(n, k) C(n, k-1)."""
    if not 1 <= k <= n:
        raise OutOfRangeError(f"need 1 <= k <= n, got k={k}, n={n}")
    value = comb(n, k) * comb(n, k - 1)
    assert value % n == 0
    return value // n


def narayana_hilbert(n):
    """(N(n+1, 1), ..., N(n+1, n+1)): the Hilbert function of the n x n
    symmetric determinant."""
    if n < 1:
        raise OutOfRangeError("need n >= 1")
    return HilbertFn(n, tuple(narayana(n + 1, k) for k in range(1, n + 2)))


def q_mu(ks, s, d):
    """The double product prod_{i=0}^{r-1} prod_{l=0}^{k_{i+1}+...+k_r - 1}
    (i*d/2 + s - l); empty inner ranges contribute 1.  Rational s and d are
    accepted so the predicate can be probed off the integer locus."""
    ks = tuple(int(x) for x in ks)
    if any(x < 0 for x in ks):
        raise ValueError("exponents are non-negative")
    s, d = Fraction(s), Fraction(d)
    value = Fraction(1)
    for i in range(len(ks)):
        for l in range(sum(ks[i:])):  # k_{i+1} + ... + k_r, 1-based
            value *= Fraction(i) * d / 2 + s - l
    return value
