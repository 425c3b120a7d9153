from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefkit.errors import NotDominantError, OutOfRangeError, TooLargeError
from lefkit.families import FamilyKind, FamilySpec, make_invariant
from lefkit.macaulay import hilbert_function
from lefkit.reptheory import (
    ExponentTuple,
    narayana,
    narayana_hilbert,
    predicted_hilbert_typeC,
    q_mu,
    type_c_weight,
    weyl_dim_gl,
)


def test_weyl_dim_examples():
    assert weyl_dim_gl((2, 0)) == 3
    assert weyl_dim_gl((2, 2, 2)) == 1
    assert weyl_dim_gl((4, 2)) == 3
    assert weyl_dim_gl((0, 0, -2)) == 6


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(NotDominantError):
        weyl_dim_gl((0, 1))


def test_weyl_dim_determinant_twist_invariance():
    for lam in [(2, 0), (3, 1, 0), (0, -1, -4), (5, 5, 2, 0)]:
        twisted = tuple(x + 1 for x in lam)
        assert weyl_dim_gl(lam) == weyl_dim_gl(twisted)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5), st.integers(-3, 3))
def test_weyl_dim_twist_invariance_random(entries, shift):
    lam = tuple(sorted(entries, reverse=True))
    twisted = tuple(x + shift for x in lam)
    assert weyl_dim_gl(lam) == weyl_dim_gl(twisted)


def test_narayana_values():
    assert narayana(4, 2) == 6
    assert narayana(4, 1) == 1
    assert sum(narayana(4, k) for k in range(1, 5)) == 14  # Catalan C_4
    with pytest.raises(OutOfRangeError):
        narayana(4, 0)
    with pytest.raises(OutOfRangeError):
        narayana(4, 5)


@pytest.mark.parametrize("n,expected", [
    (2, (1, 3, 1)),
    (3, (1, 6, 6, 1)),
    (4, (1, 10, 20, 10, 1)),
])
def test_narayana_hilbert(n, expected):
    assert narayana_hilbert(n).values == expected


def test_narayana_hilbert_palindromic_catalan_sum():
    for n in range(1, 8):
        fn = narayana_hilbert(n)
        assert fn.is_symmetric()
        catalan = comb(2 * n + 2, n + 1) // (n + 2)
        assert sum(fn.values) == catalan


def test_q_mu_examples():
    assert q_mu((1, 0), 1, 1) == 1
    assert q_mu((2, 0), 1, 1) == 0
    assert q_mu((0,), Fraction(7, 2), Fraction(1, 3)) == 1


def test_q_mu_accepts_exponent_tuple():
    assert q_mu(ExponentTuple((1, 1)), 2, 1) == q_mu((1, 1), 2, 1)


def test_q_mu_rational_probe_off_integer_locus():
    # at s = 1/2 the i=0 factor (s - l) never hits zero on integers
    assert q_mu((3, 0), Fraction(1, 2), 1) != 0


def test_q_mu_cutoff_equivalence_exhaustive():
    # d in the implemented table, quadric values instantiated at m=3
    for d in (1, 2, 4, 3, 2):
        for r in range(1, 5):
            for ks in product(range(5), repeat=r):
                for s in range(1, 5):
                    vanishes = q_mu(ks, s, d) == 0
                    assert vanishes == (sum(ks) > s), (d, ks, s)


def test_exponent_tuple_grading():
    t = ExponentTuple((1, 0, 2))
    assert t.rank == 3
    assert t.total == 3
    assert t.graded_degree == 1 + 3 * 2


def test_type_c_weight():
    # lambda_1 = (0,...,0,-2); k = (1,0,0)
    assert type_c_weight(3, (1, 0, 0)) == (0, 0, -2)
    assert type_c_weight(3, (0, 1, 0)) == (0, -2, -2)
    assert type_c_weight(3, (0, 0, 2)) == (-4, -4, -4)
    assert type_c_weight(2, (1, 1)) == (-2, -4)


@pytest.mark.parametrize("n,s,expected", [
    (3, 1, (1, 6, 6, 1)),
    (2, 2, (1, 3, 6, 3, 1)),
    (1, 3, (1, 1, 1, 1)),
    (2, 3, (1, 3, 6, 10, 6, 3, 1)),
])
def test_predicted_hilbert(n, s, expected):
    assert predicted_hilbert_typeC(n, s).values == expected


def test_predicted_hilbert_palindromic():
    for n, s in [(2, 1), (2, 4), (3, 2), (4, 2), (5, 1)]:
        fn = predicted_hilbert_typeC(n, s)
        assert fn.socle_degree == n * s
        assert fn.is_symmetric()
        assert fn.values[0] == 1 and fn.values[-1] == 1


def test_predicted_hilbert_budget():
    with pytest.raises(TooLargeError):
        predicted_hilbert_typeC(40, 40, budget=1000)
    with pytest.raises(OutOfRangeError):
        predicted_hilbert_typeC(0, 1)


def test_predicted_hilbert_budget_env_var(monkeypatch):
    # (2, 2) has C(4, 2) = 6 summands
    monkeypatch.setenv("LEFKIT_BUDGET", "5")
    with pytest.raises(TooLargeError):
        predicted_hilbert_typeC(2, 2)
    monkeypatch.setenv("LEFKIT_BUDGET", "6")
    assert predicted_hilbert_typeC(2, 2).values == (1, 3, 6, 3, 1)


def test_prediction_matches_catalecticant_ranks():
    for n, s in [(1, 3), (2, 1), (2, 2), (3, 1)]:
        f = make_invariant(FamilySpec(FamilyKind.SYM_DET, n, s))
        assert predicted_hilbert_typeC(n, s).values == hilbert_function(f).values


def test_narayana_equals_prediction_at_power_one():
    for n in range(1, 6):
        assert narayana_hilbert(n).values == predicted_hilbert_typeC(n, 1).values
