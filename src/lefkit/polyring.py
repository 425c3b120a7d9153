"""Sparse multivariate polynomials over exact rationals.

In the apolarity pairing p acts on F as p(d/dx), with true derivatives (x^2
applied to x^2 gives 2, not 1); ``macaulay`` builds it from the divisors of
F's terms.  Apolarity weights, where variable i acts as w_i * d/dx_i, need no
separate path: the plain pairing against F(w*x) (:func:`scale_variables`) is
the weighted pairing against F with each output monomial x^e scaled by w^e.
Monomials are exponent tuples ordered graded-lex throughout, which keeps
every matrix and report deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from operator import add, lshift, sub
from typing import Collection, Iterator, Sequence

from .errors import NotLinearError, VarMismatchError

Monomial = tuple[int, ...]


def _as_coeff(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"coefficient must be an exact rational, got {x!r}")


class Poly:
    """Immutable sparse polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        cleaned: dict[Monomial, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {nvars} variables")
            coeff = _as_coeff(coeff)
            if coeff:
                cleaned[expo] = cleaned.get(expo, Fraction(0)) + coeff
                if not cleaned[expo]:
                    del cleaned[expo]
        self._terms = cleaned

    @classmethod
    def _of(cls, nvars: int, terms: dict[Monomial, Fraction]) -> "Poly":
        # Library-built terms, already clean (exponent tuples of length
        # nvars, nonzero Fraction coefficients): stored as given, unchecked.
        p = cls.__new__(cls)
        p.nvars, p._terms = nvars, terms
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {tuple([0] * nvars): _as_coeff(value)})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, expo: Sequence[int], coeff=1) -> "Poly":
        return cls(nvars, {tuple(expo): _as_coeff(coeff)})

    # -- queries -------------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(expo), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get(tuple([0] * self.nvars), Fraction(0))

    def homogeneous_degree(self) -> int | None:
        """The common total degree, or None if zero or inhomogeneous."""
        degrees = {sum(e) for e in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def linear_coefficients(self) -> tuple[Fraction, ...]:
        """Coefficient vector of a homogeneous linear form."""
        out = [Fraction(0)] * self.nvars
        for expo, coeff in self._terms.items():
            if sum(expo) != 1:
                raise ValueError("not a linear form")
            out[expo.index(1)] = coeff
        return tuple(out)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise VarMismatchError(
                f"polynomials in {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        terms = dict(self._terms)
        for expo, coeff in other._terms.items():
            s = terms.get(expo, Fraction(0)) + coeff
            if s:
                terms[expo] = s
            else:
                terms.pop(expo, None)
        return Poly._of(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return poly_mul(self, other)

    __rmul__ = __mul__

    def scale(self, scalar) -> "Poly":
        scalar = _as_coeff(scalar)
        if not scalar:
            return Poly.zero(self.nvars)
        return Poly._of(self.nvars, {e: c * scalar for e, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(
            self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
        )

    def __repr__(self) -> str:
        names = [f"x{i + 1}" for i in range(self.nvars)]
        return f"Poly({format_poly(self, names)})"


# ---------------------------------------------------------------------------
# spec operations


def _clear_denominators(values: Collection) -> tuple[int, list[int]]:
    """(D, [D * v for v in values]) for exact rationals (int or Fraction),
    D the lcm of their denominators: the least positive integer that makes
    every D * v an integer.  F's coefficients and L's are cleared here."""
    den = lcm(*[v.denominator for v in values])
    return den, [v.numerator * (den // v.denominator) for v in values]


def _linear_form_coeffs(L: Poly, nvars: int) -> tuple[Fraction, ...]:
    """L's coefficient vector, after checking that L is a nonzero
    homogeneous linear form in ``nvars`` variables."""
    if L.nvars != nvars:
        raise VarMismatchError(f"L has {L.nvars} variables, expected {nvars}")
    if L.homogeneous_degree() != 1:  # None for a zero or inhomogeneous L
        raise NotLinearError("L must be a nonzero homogeneous linear form")
    return L.linear_coefficients()


def _cleared(p: Poly, shifts: range) -> tuple[int, list[tuple[int, int]]]:
    """D, the lcm of p's denominators, and each term of D*p as (key, integer
    coefficient), the key of x^e being sum e_k << shifts[k]."""
    den, coeffs = _clear_denominators(p._terms.values())
    return den, [
        (sum(map(lshift, expo, shifts)), coeff)
        for expo, coeff in zip(p._terms, coeffs)
    ]


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Exact product; degrees add for homogeneous inputs.  A one-term factor
    shifts the other's exponents.  Otherwise each factor is cleared to
    integers over its common denominator, and each monomial x^e
    to the additive key sum e_k << (k * bits), a field of ``bits`` bits
    holding the product's largest exponent; so a pair of terms costs one
    integer multiply-add, and each product term is divided back to a
    Fraction once."""
    a._check_compatible(b)
    nvars = a.nvars
    if not (a._terms and b._terms):
        return Poly.zero(nvars)
    if len(b._terms) == 1:
        a, b = b, a
    if len(a._terms) == 1:  # a monomial times b: the exponents stay distinct
        [(ea, ca)] = a._terms.items()
        return Poly._of(nvars, {
            tuple(map(add, ea, eb)): ca * cb for eb, cb in b._terms.items()
        })
    # each factor has two or more terms, so its exponent tuples are not empty
    bits = (max(map(max, a._terms)) + max(map(max, b._terms))).bit_length()
    mask, shifts = (1 << bits) - 1, range(0, nvars * bits, bits)
    (da, ia), (db, ib) = _cleared(a, shifts), _cleared(b, shifts)
    den, sums = da * db, {}
    for ka, ca in ia:
        for kb, cb in ib:
            k = ka + kb
            sums[k] = sums.get(k, 0) + ca * cb
    return Poly._of(nvars, {
        tuple([key >> s & mask for s in shifts]):
            Fraction(v) if den == 1 else Fraction(v, den)
        for key, v in sums.items() if v
    })


def poly_pow(a: Poly, s: int) -> Poly:
    """a**s by repeated squaring; a**0 is the constant 1."""
    if not isinstance(s, int) or s < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = Poly.one(a.nvars)
    base = a
    while s:
        if s & 1:
            result = poly_mul(result, base)
        s >>= 1
        if s:
            base = poly_mul(base, base)
    return result


def scale_variables(f: Poly, weights: Sequence) -> Poly:
    """F(w*x): every term coeff*x^e becomes coeff*w^e*x^e.  The weights are
    one positive rational per variable."""
    if len(weights) != f.nvars:
        raise VarMismatchError("weights length must match variable count")
    wts = [_as_coeff(w) for w in weights]
    if any(w <= 0 for w in wts):
        raise ValueError("weights must be positive")
    terms = {}
    for expo, coeff in f._terms.items():
        for w, e in zip(wts, expo):
            if e:
                coeff *= w**e
        terms[expo] = coeff
    return Poly._of(f.nvars, terms)


def monomials_of_degree(nvars: int, d: int) -> list[Monomial]:
    """All C(nvars+d-1, d) exponent tuples of total degree d, graded-lex
    (descending lex within the degree)."""
    if nvars < 1 or d < 0:
        raise ValueError("need nvars >= 1 and d >= 0")
    # Stars and bars: cut points 0 <= c_1 <= ... <= c_(n-1) <= d give the
    # parts c_1, c_2 - c_1, ..., d - c_(n-1), and lex order of the cut
    # points is lex order of the parts, so the list is built ascending and
    # reversed.
    out = [
        tuple(map(sub, cuts + (d,), (0,) + cuts))
        for cuts in combinations_with_replacement(range(d + 1), nvars - 1)
    ]
    out.reverse()
    assert len(out) == comb(nvars + d - 1, d)
    return out


def dim_of_degree(nvars: int, d: int) -> int:
    """Dimension of the degree-d graded piece of the polynomial ring."""
    return comb(nvars + d - 1, d)


# ---------------------------------------------------------------------------
# text format: terms as "coeff * name^e name^e" joined by +/-


def format_poly(p: Poly, names: Sequence[str]) -> str:
    if len(names) != p.nvars:
        raise VarMismatchError("names length must match variable count")
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for expo, coeff in p.sorted_terms():
        factors = " ".join(
            names[i] if e == 1 else f"{names[i]}^{e}"
            for i, e in enumerate(expo)
            if e
        )
        magnitude = str(abs(coeff))
        body = f"{magnitude} * {factors}" if factors else magnitude
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)

