"""The Jordan-algebra Hilbert prediction (``families.predicted_hilbert``)
against catalecticant ranks, and the d = 1 representation-theoretic oracles
of ``_oracles`` (Weyl dimensions, Narayana numbers, q_mu) against it."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefkit.errors import InvalidSpecError, OutOfRangeError, TooLargeError
from lefkit.families import (
    FamilyKind,
    FamilySpec,
    family_symmetry,
    make_invariant,
    predicted_hilbert,
)
from lefkit.macaulay import hilbert_function

from _oracles import narayana, narayana_hilbert, q_mu, weyl_dim_gl, weyl_sum_hilbert

# (family, n, s) cheap enough to rank every catalecticant block
CATALECTICANT_GRID = [
    (FamilyKind.SYM_DET, 1, 3), (FamilyKind.SYM_DET, 2, 1),
    (FamilyKind.SYM_DET, 2, 3), (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.SYM_DET, 4, 1),
    (FamilyKind.GENERIC_DET, 1, 2), (FamilyKind.GENERIC_DET, 2, 3),
    (FamilyKind.GENERIC_DET, 3, 1), (FamilyKind.GENERIC_DET, 3, 2),
    (FamilyKind.PFAFFIAN, 2, 2), (FamilyKind.PFAFFIAN, 4, 3),
    (FamilyKind.PFAFFIAN, 6, 1), (FamilyKind.PFAFFIAN, 8, 1),
    (FamilyKind.QUADRIC, 1, 3), (FamilyKind.QUADRIC, 2, 3),
    (FamilyKind.QUADRIC, 3, 2), (FamilyKind.QUADRIC, 5, 3),
    (FamilyKind.QUADRIC, 7, 2),
]


def test_weyl_dim_examples():
    assert weyl_dim_gl((2, 0)) == 3
    assert weyl_dim_gl((2, 2, 2)) == 1
    assert weyl_dim_gl((4, 2)) == 3
    assert weyl_dim_gl((0, 0, -2)) == 6


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
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


def test_q_mu_rational_probe_off_integer_locus():
    # at s = 1/2 the i=0 factor (s - l) never hits zero on integers
    assert q_mu((3, 0), Fraction(1, 2), 1) != 0


@pytest.mark.parametrize("n,s,expected", [
    (3, 1, (1, 6, 6, 1)),
    (2, 2, (1, 3, 6, 3, 1)),
    (1, 3, (1, 1, 1, 1)),
    (2, 3, (1, 3, 6, 10, 6, 3, 1)),
])
def test_predicted_hilbert(n, s, expected):
    assert predicted_hilbert(FamilySpec(FamilyKind.SYM_DET, n, s)).values == expected


@pytest.mark.parametrize("n,s,expected", [
    # d = -1: F = x^(2s), one monomial per degree
    (1, 1, (1, 1, 1)),
    (1, 3, (1, 1, 1, 1, 1, 1, 1)),
    # d = 0: the textbook (x + a t) / (a t) would divide by zero here
    (2, 1, (1, 2, 1)),
    (2, 3, (1, 2, 3, 4, 3, 2, 1)),
])
def test_predicted_hilbert_small_quadrics(n, s, expected):
    assert predicted_hilbert(FamilySpec(FamilyKind.QUADRIC, n, s)).values == expected


def test_predicted_hilbert_palindromic():
    for kind, n, s in [
        (FamilyKind.SYM_DET, 2, 1), (FamilyKind.SYM_DET, 2, 4),
        (FamilyKind.SYM_DET, 3, 2), (FamilyKind.SYM_DET, 4, 2),
        (FamilyKind.SYM_DET, 5, 1),
        (FamilyKind.GENERIC_DET, 4, 2), (FamilyKind.PFAFFIAN, 10, 2),
        (FamilyKind.QUADRIC, 9, 4),
    ]:
        spec = FamilySpec(kind, n, s)
        fn = predicted_hilbert(spec)
        assert fn.socle_degree == spec.socle_degree
        assert fn.is_symmetric()
        assert fn.values[0] == 1 and fn.values[-1] == 1
        assert fn.values[1] == spec.nvars


def test_predicted_hilbert_budget():
    with pytest.raises(TooLargeError):
        predicted_hilbert(FamilySpec(FamilyKind.SYM_DET, 40, 40), budget=1000)
    with pytest.raises(TooLargeError):
        predicted_hilbert(FamilySpec(FamilyKind.PFAFFIAN, 80, 40), budget=1000)
    with pytest.raises(InvalidSpecError):
        predicted_hilbert(FamilySpec(FamilyKind.SYM_DET, 0, 1))


def test_predicted_hilbert_budget_boundary():
    # (2, 2) has C(4, 2) = 6 partitions
    spec = FamilySpec(FamilyKind.SYM_DET, 2, 2)
    with pytest.raises(TooLargeError):
        predicted_hilbert(spec, budget=5)
    assert predicted_hilbert(spec, budget=6).values == (1, 3, 6, 3, 1)


def test_predicted_hilbert_budget_message_for_unprintable_counts():
    # C(40000, 20000) has more digits than str() may print
    message = r"^at least 2\^\d+ partitions exceed the budget 4000000$"
    with pytest.raises(TooLargeError, match=message):
        predicted_hilbert(FamilySpec(FamilyKind.SYM_DET, 20000, 20000))


def test_prediction_matches_catalecticant_ranks():
    for kind, n, s in CATALECTICANT_GRID:
        spec = FamilySpec(kind, n, s)
        computed = hilbert_function(make_invariant(spec), family_symmetry(spec))
        assert predicted_hilbert(spec).values == computed.values, spec


def test_weyl_sum_equals_prediction_for_sym_det():
    # d = 1: the gl_n Weyl sum over type-C highest weights is an oracle of
    # its own, sharing nothing with the Jordan product formula
    for n in range(1, 5):
        for s in range(1, 5):
            spec = FamilySpec(FamilyKind.SYM_DET, n, s)
            assert weyl_sum_hilbert(n, s).values == predicted_hilbert(spec).values


def test_narayana_equals_prediction_at_power_one():
    for n in range(1, 6):
        spec = FamilySpec(FamilyKind.SYM_DET, n, 1)
        assert narayana_hilbert(n).values == predicted_hilbert(spec).values
