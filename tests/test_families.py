import random
from fractions import Fraction

import pytest

from lefkit.errors import (
    InvalidSpecError,
    NotLinearError,
    OutOfRangeError,
)
from lefkit.exactmath import RatMatrix, mat_rank
from lefkit.families import (
    FamilyKind,
    FamilySpec,
    _in_open_orbit,
    _positions,
    basic_invariant,
    canonical_lefschetz,
    coeffs_to_matrix,
    deficient_candidates,
    generic_matrix,
    kind_from_name,
    make_invariant,
    orbit_test,
    pfaffian_poly,
)
from lefkit.polyring import Poly, _clear_denominators, poly_mul, poly_pow

from _oracles import (
    corner_minor,
    naive_contract,
    naive_evaluate,
    naive_rank,
    perm_det_poly,
)


def _integer_point(coeffs):
    """L's coefficients cleared to integers, as verify_theorem carries them."""
    return _clear_denominators(coeffs)[1]


def sym(n, s=1):
    return FamilySpec(FamilyKind.SYM_DET, n, s)


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        FamilySpec(FamilyKind.PFAFFIAN, 5)
    with pytest.raises(InvalidSpecError):
        FamilySpec(FamilyKind.SYM_DET, 0)
    with pytest.raises(InvalidSpecError):
        FamilySpec(FamilyKind.SYM_DET, 2, 0)
    with pytest.raises(InvalidSpecError):
        kind_from_name("det")
    # a kind must be a FamilyKind, not its name
    with pytest.raises(InvalidSpecError):
        FamilySpec("sym-det", 3)
    # size and power must be plain ints: not a float, a bool or a str
    for bad in (2.5, True, "3"):
        with pytest.raises(InvalidSpecError, match="must be an int"):
            FamilySpec(FamilyKind.SYM_DET, bad)
        with pytest.raises(InvalidSpecError, match="must be an int"):
            FamilySpec(FamilyKind.SYM_DET, 2, bad)


def test_var_index_outside_the_layout():
    # sym-det keeps the upper triangle, so (2, 1) is no position of it
    spec = FamilySpec(FamilyKind.SYM_DET, 2)
    for i, j in [(2, 1), (3, 3), (0, 0), (1, 0)]:
        with pytest.raises(OutOfRangeError, match=rf"\({i}, {j}\).*sym-det\(n=2"):
            spec.var_index(i, j)
    assert FamilySpec(FamilyKind.QUADRIC, 3).var_index(3) == 2


def test_nvars_counts_the_layout():
    for kind in FamilyKind:
        for n in range(1, 7):
            if kind is FamilyKind.PFAFFIAN and n % 2:
                continue
            spec = FamilySpec(kind, n)
            assert spec.nvars == len(spec.layout)
            indices = sorted(
                spec.var_index(int(name[1]), int(name[2]) if len(name) > 2 else 0)
                for name in spec.layout
            )
            assert indices == list(range(spec.nvars))


def test_layouts():
    assert sym(2).layout == ("x11", "x12", "x22")
    assert FamilySpec(FamilyKind.PFAFFIAN, 4).layout == (
        "x12", "x13", "x14", "x23", "x24", "x34",
    )
    assert FamilySpec(FamilyKind.QUADRIC, 3).layout == ("x1", "x2", "x3")
    assert FamilySpec(FamilyKind.GENERIC_DET, 2).layout == (
        "x11", "x12", "x21", "x22",
    )


def test_nvars_and_degrees():
    grid = [
        (FamilySpec(FamilyKind.GENERIC_DET, 3, 2), 9, 3, 6),
        (sym(3, 2), 6, 3, 6),
        (FamilySpec(FamilyKind.PFAFFIAN, 6), 15, 3, 3),
        (FamilySpec(FamilyKind.QUADRIC, 5, 2), 5, 2, 4),
    ]
    for spec, nvars, c0, c in grid:
        assert spec.nvars == nvars
        assert spec.rank_r == c0
        assert spec.socle_degree == c
        assert make_invariant(spec).homogeneous_degree() == c


def test_d_table():
    assert sym(4).d_value == 1
    assert FamilySpec(FamilyKind.GENERIC_DET, 3).d_value == 2
    assert FamilySpec(FamilyKind.PFAFFIAN, 6).d_value == 4
    # quadric in 2m-1 variables: 2m-3; in 2m-2 variables: 2m-4
    assert FamilySpec(FamilyKind.QUADRIC, 5).d_value == 3
    assert FamilySpec(FamilyKind.QUADRIC, 4).d_value == 2
    # structural identity nvars = r + d*r*(r-1)/2 of the Jordan algebra,
    # for every kind
    for kind in FamilyKind:
        for n in range(1, 7):
            if kind is FamilyKind.PFAFFIAN and n % 2:
                continue
            spec = FamilySpec(kind, n)
            r = spec.rank_r
            assert spec.nvars == r + spec.d_value * r * (r - 1) / 2, spec


def test_rank_r_gives_basic_degree():
    for spec in (sym(3), FamilySpec(FamilyKind.GENERIC_DET, 2),
                 FamilySpec(FamilyKind.PFAFFIAN, 4),
                 FamilySpec(FamilyKind.QUADRIC, 4)):
        # the basic invariant sits at k = (0,...,0,1), graded degree r
        assert make_invariant(spec).homogeneous_degree() == spec.rank_r


def test_sym_det_2():
    assert make_invariant(sym(2)) == Poly(3, {(1, 0, 1): 1, (0, 2, 0): -1})


def test_quadric_invariant():
    assert make_invariant(FamilySpec(FamilyKind.QUADRIC, 3)) == Poly(
        3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    )


def test_pfaffian_small():
    assert pfaffian_poly(2) == Poly(1, {(1,): 1})
    pf4 = pfaffian_poly(4)
    spec = FamilySpec(FamilyKind.PFAFFIAN, 4)
    expected = (
        poly_mul(Poly.variable(6, spec.var_index(1, 2)), Poly.variable(6, spec.var_index(3, 4)))
        - poly_mul(Poly.variable(6, spec.var_index(1, 3)), Poly.variable(6, spec.var_index(2, 4)))
        + poly_mul(Poly.variable(6, spec.var_index(1, 4)), Poly.variable(6, spec.var_index(2, 3)))
    )
    assert pf4 == expected
    with pytest.raises(InvalidSpecError):
        pfaffian_poly(3)


@pytest.mark.parametrize("n,terms", [(2, 1), (4, 3), (6, 15)])
def test_pfaffian_squared_is_determinant(n, terms):
    spec = FamilySpec(FamilyKind.PFAFFIAN, n)
    pf = pfaffian_poly(n)
    assert pf.term_count() == terms
    det = perm_det_poly(generic_matrix(spec), spec.nvars)
    assert poly_mul(pf, pf) == det


def test_generic_det_matches_permutation_expansion():
    for n in (2, 3):
        spec = FamilySpec(FamilyKind.GENERIC_DET, n)
        assert basic_invariant(spec) == perm_det_poly(generic_matrix(spec), spec.nvars)


def test_sym_det_matches_permutation_expansion():
    for n in (2, 3, 4):
        spec = sym(n)
        assert basic_invariant(spec) == perm_det_poly(generic_matrix(spec), spec.nvars)


def _substitute_congruence(spec, f, g):
    """f(g X g^t) for the symmetric family, computed by expanding the
    congruent matrix entries as linear polynomials."""
    n = spec.size
    entries = [
        [
            sum(
                (
                    Poly.variable(spec.nvars, spec.var_index(*sorted((k + 1, l + 1))))
                    * (g[i][k] * g[j][l])
                    for k in range(n)
                    for l in range(n)
                ),
                Poly.zero(spec.nvars),
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    det = perm_det_poly(entries, spec.nvars)
    return poly_pow(det, spec.power)


@pytest.mark.parametrize("n,s", [(2, 1), (2, 2), (3, 1)])
def test_relative_invariance_under_congruence(n, s):
    spec = sym(n, s)
    f = make_invariant(spec)
    rng = random.Random(5)
    checked = 0
    while checked < 10:
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        detg = _det_of_fracs(g)
        if not detg:
            continue
        transformed = _substitute_congruence(spec, f, g)
        assert transformed == f.scale(detg ** (2 * s))
        checked += 1


def _det_of_fracs(rows):
    from _oracles import perm_det_frac

    return perm_det_frac(rows)


def test_coeffs_to_matrix_sym():
    spec = sym(2)
    L = Poly.variable(3, 0) + Poly.variable(3, 2)  # x11 + x22
    m = coeffs_to_matrix(spec, L)
    assert m == RatMatrix.from_rows([[1, 0], [0, 1]])


def test_coeffs_to_matrix_pfaffian():
    spec = FamilySpec(FamilyKind.PFAFFIAN, 4)
    L = Poly.variable(6, spec.var_index(1, 2)) + Poly.variable(6, spec.var_index(3, 4))
    m = coeffs_to_matrix(spec, L)
    assert m.entry(0, 1) == 1 and m.entry(1, 0) == -1
    assert m.entry(2, 3) == 1 and m.entry(3, 2) == -1
    assert mat_rank(m) == 4


def test_coeffs_to_matrix_quadric():
    spec = FamilySpec(FamilyKind.QUADRIC, 3)
    L = Poly.variable(3, 0) - Poly.variable(3, 2).scale(2)
    assert coeffs_to_matrix(spec, L) == (1, 0, -2)


def test_coeffs_to_matrix_rejects_nonlinear():
    spec = sym(2)
    with pytest.raises(NotLinearError):
        coeffs_to_matrix(spec, make_invariant(spec))
    with pytest.raises(NotLinearError):
        coeffs_to_matrix(spec, Poly.zero(3))


def test_orbit_test_sym():
    spec = sym(3)
    trace = canonical_lefschetz(spec)
    assert orbit_test(spec, trace)
    rank2 = Poly.variable(6, spec.var_index(1, 1)) + Poly.variable(6, spec.var_index(2, 2))
    assert not orbit_test(spec, rank2)


def test_orbit_test_quadric():
    spec = FamilySpec(FamilyKind.QUADRIC, 4)
    assert orbit_test(spec, Poly.variable(4, 0))
    with pytest.raises(NotLinearError):
        orbit_test(spec, Poly.zero(4))


def test_canonical_lefschetz_everywhere_in_orbit():
    specs = [
        sym(2), sym(3, 2),
        FamilySpec(FamilyKind.GENERIC_DET, 2), FamilySpec(FamilyKind.GENERIC_DET, 3),
        FamilySpec(FamilyKind.PFAFFIAN, 4), FamilySpec(FamilyKind.PFAFFIAN, 6),
        FamilySpec(FamilyKind.QUADRIC, 3), FamilySpec(FamilyKind.QUADRIC, 5),
    ]
    for spec in specs:
        assert orbit_test(spec, canonical_lefschetz(spec))


def test_canonical_pfaffian_evaluates_to_one():
    spec = FamilySpec(FamilyKind.PFAFFIAN, 4)
    L = canonical_lefschetz(spec)
    point = L.linear_coefficients()
    assert naive_evaluate(pfaffian_poly(4), point) == 1


def test_deficient_candidates():
    spec = sym(3)
    cands = deficient_candidates(spec)
    assert len(cands) == 2
    assert all(not orbit_test(spec, L) for L in cands)
    assert deficient_candidates(FamilySpec(FamilyKind.QUADRIC, 4)) == []
    pf = FamilySpec(FamilyKind.PFAFFIAN, 6)
    assert all(not orbit_test(pf, L) for L in deficient_candidates(pf))


ORBIT_SPECS = [
    sym(2), sym(3), sym(4),
    FamilySpec(FamilyKind.GENERIC_DET, 2), FamilySpec(FamilyKind.GENERIC_DET, 3),
    FamilySpec(FamilyKind.PFAFFIAN, 4), FamilySpec(FamilyKind.PFAFFIAN, 6),
]


def _rational_forms(spec, rng, count):
    """Seeded linear forms with small rational coefficients, some zero, so
    that singular matrices turn up too."""
    forms = []
    while len(forms) < count:
        coeffs = {
            k: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            for k in range(spec.nvars)
            if rng.random() < 0.5
        }
        if any(coeffs.values()):
            forms.append(sum(
                (v * Poly.variable(spec.nvars, k) for k, v in coeffs.items() if v),
                Poly.zero(spec.nvars),
            ))
    return forms


@pytest.mark.parametrize("spec", ORBIT_SPECS, ids=str)
def test_orbit_test_matches_naive_rank(spec):
    rng = random.Random(str(spec))
    forms = _rational_forms(spec, rng, 25) + deficient_candidates(spec)
    verdicts = [orbit_test(spec, L) for L in forms]
    for L, verdict in zip(forms, verdicts):
        assert verdict == (naive_rank(coeffs_to_matrix(spec, L).dense()) == spec.size)
    assert any(verdicts) and not all(verdicts)


def test_orbit_test_does_not_run_the_rank_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("orbit_test ran exactmath's rank kernel")

    monkeypatch.setattr("lefkit.exactmath._rank_mod_p", refuse)
    monkeypatch.setattr("lefkit.exactmath.mat_rank", refuse)
    monkeypatch.setattr("lefkit.exactmath.dense_rank", refuse)
    for spec in ORBIT_SPECS:
        assert orbit_test(spec, canonical_lefschetz(spec))
        assert not any(orbit_test(spec, L) for L in deficient_candidates(spec))
        # the per-point test behind orbit_test, as verify_theorem calls it
        point = _integer_point(canonical_lefschetz(spec).linear_coefficients())
        assert _in_open_orbit(spec, point)
        assert not any(
            _in_open_orbit(spec, _integer_point(L.linear_coefficients()))
            for L in deficient_candidates(spec)
        )


@pytest.mark.parametrize("spec", ORBIT_SPECS + [FamilySpec(FamilyKind.QUADRIC, 4)], ids=str)
def test_orbit_test_is_the_per_point_test_on_the_cleared_point(spec):
    rng = random.Random(41)
    for L in _rational_forms(spec, rng, 12):
        point = _integer_point(L.linear_coefficients())
        assert all(isinstance(a, int) for a in point)
        assert orbit_test(spec, L) == _in_open_orbit(spec, point)
        # a positive multiple stays in (or out of) the orbit
        assert _in_open_orbit(spec, [3 * a for a in point]) == orbit_test(spec, L)


def test_positions_are_cached_as_a_tuple():
    for kind in FamilyKind:
        n = 4
        first = _positions(kind, n)
        assert isinstance(first, tuple) and first is _positions(kind, n)
        spec = FamilySpec(kind, n)
        assert len(first) == spec.nvars
        assert all(spec.var_index(i, j) == k for k, (i, j) in enumerate(first))


def test_corner_minor():
    spec = sym(3)
    assert corner_minor(spec, 1) == Poly.variable(6, spec.var_index(3, 3))
    assert corner_minor(spec, 3) == basic_invariant(spec)
    with pytest.raises(OutOfRangeError):
        corner_minor(spec, 4)
    with pytest.raises(InvalidSpecError):
        corner_minor(FamilySpec(FamilyKind.QUADRIC, 3), 1)


@pytest.mark.parametrize("n,s", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_corner_variable_annihilation_law(n, s):
    # x_nn^(s+1) kills det^s, x_nn^s does not
    spec = sym(n, s)
    f = make_invariant(spec)
    corner = corner_minor(spec, 1)
    assert naive_contract(poly_pow(corner, s + 1), f).is_zero()
    assert not naive_contract(poly_pow(corner, s), f).is_zero()
