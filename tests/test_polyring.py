from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefkit.errors import VarMismatchError
from lefkit.polyring import (
    Poly,
    _clear_denominators,
    dim_of_degree,
    format_poly,
    monomials_of_degree,
    poly_mul,
    poly_pow,
    scale_variables,
)

from _oracles import naive_contract, naive_mul, naive_pow, parse_poly


def x(i, nvars=3):
    return Poly.variable(nvars, i)


DET2 = Poly(3, {(1, 0, 1): 1, (0, 2, 0): -1})  # x11*x22 - x12^2


def test_mul_variables():
    p = poly_mul(x(0, 2), x(1, 2))
    assert p == Poly(2, {(1, 1): 1})


def test_mul_difference_of_squares():
    a = x(0, 2) + x(1, 2)
    b = x(0, 2) - x(1, 2)
    assert poly_mul(a, b) == Poly(2, {(2, 0): 1, (0, 2): -1})


def test_mul_by_zero():
    assert poly_mul(DET2, Poly.zero(3)).is_zero()


def test_mul_var_mismatch():
    with pytest.raises(VarMismatchError):
        poly_mul(x(0, 2), x(0, 3))


def test_pow_identity_case():
    assert poly_pow(DET2, 1) == DET2
    assert poly_pow(DET2, 0) == Poly.one(3)


def test_pow_binomial_square():
    p = poly_pow(x(0, 2) + x(1, 2), 2)
    assert p == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_pow_det2_squared_term_count():
    sq = poly_pow(DET2, 2)
    assert sq == naive_pow(DET2, 2)
    # x11^2 x22^2 - 2 x11 x22 x12^2 + x12^4
    assert sq.term_count() == 3
    assert sq.coefficient((1, 2, 1)) == -2


def test_contract_single_partial():
    assert naive_contract(x(0), DET2) == x(2)


def test_contract_second_partial_constant():
    p = poly_mul(x(1), x(1))  # x12^2
    assert naive_contract(p, DET2) == Poly.constant(3, -2)


def test_contract_identity_operator():
    assert naive_contract(Poly.one(3), DET2) == DET2


def test_contract_true_derivative_normalization():
    # d^2/dx^2 on x^2 gives 2, not 1
    sq = Poly(1, {(2,): 1})
    assert naive_contract(sq, sq) == Poly.constant(1, 2)


def test_contract_degree_drop_to_zero():
    cube = Poly(1, {(3,): 1})
    assert naive_contract(cube, Poly(1, {(2,): 1})).is_zero()


def test_contract_weights():
    # x12 acting as 2 d/dx12 on DET2 gives -4 x12; against DET2(w*x) the
    # same contraction comes out with x12 scaled by 2
    g = scale_variables(DET2, [1, 2, 1])
    assert g == Poly(3, {(1, 0, 1): 1, (0, 2, 0): -4})
    assert naive_contract(x(1), g) == Poly(3, {(0, 1, 0): -8})
    assert naive_contract(x(1), DET2, [1, 2, 1]) == Poly(3, {(0, 1, 0): -4})
    assert scale_variables(DET2, [1, Fraction(1, 3), 1]).coefficient((0, 2, 0)) == Fraction(-1, 9)


def test_contract_weight_validation():
    with pytest.raises(ValueError):
        scale_variables(DET2, [0, 1, 1])
    with pytest.raises(VarMismatchError):
        scale_variables(DET2, [1, 1])


def test_monomials_graded_lex():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_monomial_count_matches_dimension():
    for nvars, d in [(2, 5), (4, 3), (6, 2)]:
        assert len(monomials_of_degree(nvars, d)) == dim_of_degree(nvars, d)


def test_pairing_gram_matrix_is_diagonal():
    for d in (1, 2, 3):
        monos = monomials_of_degree(3, d)
        for a in monos:
            for b in monos:
                value = naive_contract(
                    Poly.monomial(3, a), Poly.monomial(3, b)
                ).constant_term()
                if a == b:
                    assert value > 0
                else:
                    assert value == 0


# --- randomized properties -------------------------------------------------

coeffs = st.integers(-4, 4).filter(bool)


def poly_strategy(nvars, max_degree=3, max_terms=4):
    expo = st.tuples(*[st.integers(0, max_degree) for _ in range(nvars)])
    return st.lists(
        st.tuples(expo, coeffs), min_size=0, max_size=max_terms
    ).map(lambda terms: Poly(nvars, {e: Fraction(c) for e, c in terms}))


@settings(max_examples=50, deadline=None)
@given(poly_strategy(3), poly_strategy(3), poly_strategy(3))
def test_contraction_composition_law(p, q, f):
    assert naive_contract(poly_mul(p, q), f) == naive_contract(p, naive_contract(q, f))


@settings(max_examples=50, deadline=None)
@given(poly_strategy(3), poly_strategy(3))
def test_mul_matches_naive(p, q):
    assert poly_mul(p, q) == naive_mul(p, q)


def rational_poly_strategy(nvars, max_degree=4, max_terms=5):
    expo = st.tuples(*[st.integers(0, max_degree) for _ in range(nvars)])
    rationals = st.fractions(-3, 3, max_denominator=6).filter(bool)
    return st.dictionaries(expo, rationals, max_size=max_terms).map(
        lambda terms: Poly(nvars, terms)
    )


@settings(max_examples=80, deadline=None)
@given(rational_poly_strategy(3), rational_poly_strategy(3), st.integers(0, 4))
def test_mul_and_pow_match_naive_on_rational_inputs(p, q, s):
    """Rational and inhomogeneous factors, monomials and the zero
    polynomial among them, and a product whose cross terms cancel."""
    for product, expected in [
        (poly_mul(p, q), naive_mul(p, q)),
        (poly_mul(p + q, p - q), naive_mul(p, p) - naive_mul(q, q)),
        (poly_pow(p, s), naive_pow(p, s)),
    ]:
        assert product == expected
        assert all(type(c) is Fraction and c for _, c in product.terms())


@settings(max_examples=30, deadline=None)
@given(poly_strategy(2, max_degree=2, max_terms=3), st.integers(0, 3), st.integers(0, 3))
def test_pow_additivity(p, s, t):
    assert poly_pow(p, s + t) == poly_mul(poly_pow(p, s), poly_pow(p, t))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_contract_lowers_degree_exactly(dp, df):
    p = Poly.monomial(2, (dp, 0)) + Poly.monomial(2, (0, dp))
    f = poly_pow(Poly.variable(2, 0) + Poly.variable(2, 1), df)
    result = naive_contract(p, f)
    if dp > df:
        assert result.is_zero()
    else:
        assert result.is_zero() or result.homogeneous_degree() == df - dp


# --- clearing denominators ---------------------------------------------------


def test_clear_denominators_of_mixed_ints_and_fractions():
    scale, ints = _clear_denominators([Fraction(3, 4), -2, Fraction(-5, 6), 0, 7])
    assert (scale, ints) == (12, [9, -24, -10, 0, 84])
    assert all(type(v) is int for v in ints)


def test_clear_denominators_of_ints_keeps_them():
    scale, ints = _clear_denominators([4, -1, 0, 9])
    assert (scale, ints) == (1, [4, -1, 0, 9])
    assert type(scale) is int and all(type(v) is int for v in ints)


def _prime_factors(n):
    p, out = 2, set()
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=30)), min_size=1,
))
def test_clear_denominators_uses_the_least_common_denominator(values):
    """Each output is value * scale, and no proper divisor of the scale
    clears every value: as the integers that clear them all are the
    multiples of their least common denominator, the scale is that one."""
    scale, ints = _clear_denominators(values)
    assert scale >= 1
    assert ints == [v * scale for v in values]
    for p in _prime_factors(scale):
        assert any((v * (scale // p)).denominator != 1 for v in map(Fraction, values))


# --- text format -------------------------------------------------------------

NAMES = ("x11", "x12", "x22")


def test_format_poly():
    assert format_poly(DET2, NAMES) == "1 * x11 x22 - 1 * x12^2"
    assert format_poly(Poly.zero(3), NAMES) == "0"
    assert format_poly(Poly.constant(3, Fraction(-3, 2)), NAMES) == "-3/2"


def test_parse_round_trip():
    for p in (DET2, poly_pow(DET2, 2), Poly.constant(3, 5), Poly.zero(3)):
        assert parse_poly(format_poly(p, NAMES), NAMES) == p


def test_parse_rational_coefficients():
    p = parse_poly("3/2 * x11^2 - x12 + 1/3", NAMES)
    assert p.coefficient((2, 0, 0)) == Fraction(3, 2)
    assert p.coefficient((0, 1, 0)) == -1
    assert p.constant_term() == Fraction(1, 3)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError):
        parse_poly("2 * x99", NAMES)
