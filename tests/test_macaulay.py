import dataclasses
import json
import random
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefkit.cli import main
from lefkit.errors import (
    InvariantError,
    OutOfRangeError,
    TooLargeError,
    ZeroPolynomialError,
)
from lefkit.exactmath import RatMatrix, dense_rank, mat_rank
from lefkit.families import FamilyKind, FamilySpec, family_symmetry, make_invariant
from lefkit.macaulay import (
    DEFAULT_CELL_BUDGET,
    _divisors,
    _integer_terms,
    _glex_rank_of_key,
    _monomial,
    _steps,
    _walk_plan,
    _weight_key,
    _weight_orbits,
    annihilator_basis,
    catalecticant,
    ensure_within_budget,
    hilbert_function,
    max_catalecticant_cells,
    resolve_budget,
)
from lefkit.polyring import (
    Poly,
    dim_of_degree,
    monomials_of_degree,
    poly_pow,
    scale_variables,
)

from _oracles import naive_catalecticant, naive_contract, naive_divisors, naive_rank

DET2 = make_invariant(FamilySpec(FamilyKind.SYM_DET, 2))
DET3 = make_invariant(FamilySpec(FamilyKind.SYM_DET, 3))
QUADRIC2 = Poly(2, {(2, 0): 1, (0, 2): 1})  # x1^2 + x2^2
CUBE = Poly(2, {(3, 0): 1})  # x1^3 in two variables


def test_catalecticant_diagonal_quadric():
    cat = catalecticant(QUADRIC2, 1)
    assert cat.matrix == RatMatrix.from_rows([[2, 0], [0, 2]])
    assert mat_rank(cat.matrix) == 2


def test_catalecticant_cube_rank_one():
    cat = catalecticant(CUBE, 1)
    assert mat_rank(cat.matrix) == 1
    # the x2 row is zero
    assert all(cat.matrix.entry(1, j) == 0 for j in range(cat.matrix.cols))


def test_catalecticant_det2_middle():
    cat = catalecticant(DET2, 1)
    # rows x11, x12, x22 map to x22, -2 x12, x11
    assert cat.matrix == RatMatrix.from_rows(
        [[0, 0, 1], [0, -2, 0], [1, 0, 0]]
    )
    assert mat_rank(cat.matrix) == 3


def test_catalecticant_labels_and_shape():
    cat = catalecticant(DET3, 2)
    assert len(cat.row_monomials) == dim_of_degree(6, 2) == cat.matrix.rows
    assert len(cat.col_monomials) == dim_of_degree(6, 1) == cat.matrix.cols
    assert list(cat.row_monomials) == sorted(cat.row_monomials, reverse=True)


def test_catalecticant_errors():
    with pytest.raises(OutOfRangeError):
        catalecticant(DET2, 3)
    with pytest.raises(ZeroPolynomialError):
        catalecticant(Poly.zero(3), 0)
    with pytest.raises(ValueError):
        catalecticant(Poly(2, {(1, 0): 1, (2, 0): 1}), 0)


def _random_weights(nvars, rng):
    return tuple(Fraction(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(nvars))


def _check_against_oracle(f, weights):
    """catalecticant(F(w*x), i) is the weighted catalecticant of F with
    column k scaled by w^(column monomial k); with no weights, the plain
    catalecticant of F.  The Hilbert function of F(w*x), ranked on the
    integer entries over the scale D, is the rank of each weighted oracle
    catalecticant."""
    g = f if weights is None else scale_variables(f, weights)
    values = hilbert_function(g).values
    for i in range(f.homogeneous_degree() + 1):
        cat = catalecticant(g, i)
        expected = naive_catalecticant(f, i, weights)
        assert values[i] == naive_rank(expected.dense())
        if weights is not None:
            expected = RatMatrix(expected.rows, expected.cols, {
                (r, k): v * prod(w**e for w, e in zip(weights, cat.col_monomials[k]))
                for (r, k), v in expected.items()
            })
        assert cat.matrix == expected


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.GENERIC_DET, 2, 2),
    (FamilyKind.PFAFFIAN, 4, 2),
    (FamilyKind.QUADRIC, 4, 2),
])
def test_catalecticant_matches_row_by_row_oracle(kind, n, s):
    f = make_invariant(FamilySpec(kind, n, s))
    weights = _random_weights(f.nvars, random.Random(n * 10 + s))
    for w in (None, weights):
        _check_against_oracle(f, w)


homogeneous_polys = st.integers(1, 3).flatmap(
    lambda nvars: st.integers(0, 4).flatmap(
        lambda c: st.dictionaries(
            st.sampled_from(monomials_of_degree(nvars, c)),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            min_size=1,
            max_size=6,
        ).map(lambda terms: Poly(nvars, terms))
    )
).filter(lambda f: not f.is_zero())


@settings(max_examples=60, deadline=None)
@given(homogeneous_polys, st.randoms(use_true_random=False))
def test_catalecticant_matches_oracle_on_random_polys(f, rng):
    weights = _random_weights(f.nvars, rng)
    for w in (None, weights):
        _check_against_oracle(f, w)


def test_catalecticant_rank_against_naive_elimination():
    for i in range(4):
        cat = catalecticant(DET3, i)
        assert mat_rank(cat.matrix) == naive_rank(cat.matrix.dense())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lex_order_key_descends_as_graded_lex_rank_ascends(data):
    """With x_0 the most significant digit (``_steps``, the one key
    order), a larger key among monomials of one degree is an earlier
    graded-lex monomial, and the key decodes back to the monomial."""
    nvars, d = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 6))
    base = d + 1 + data.draw(st.integers(0, 3))  # any base above every exponent
    steps = _steps(base, nvars)
    monos = data.draw(st.lists(
        st.sampled_from(monomials_of_degree(nvars, d)), min_size=1, max_size=8,
        unique=True,
    ))
    keys = [sum(map(mul, m, steps)) for m in monos]
    assert [_monomial(k, base, nvars) for k in keys] == monos
    by_key = [m for _, m in sorted(zip(keys, monos), reverse=True)]
    assert by_key == sorted(monos, key=monomials_of_degree(nvars, d).index)


def test_glex_rank_of_a_lex_order_key_is_the_graded_lex_index():
    for nvars in range(1, 7):
        for d in range(5):
            for base in (d + 1, 7):
                steps = _steps(base, nvars)
                for index, m in enumerate(monomials_of_degree(nvars, d)):
                    key = sum(map(mul, m, steps))
                    assert _glex_rank_of_key(key, base, nvars) == index


def test_hilbert_function_lists_no_monomial_labels(monkeypatch):
    f = make_invariant(FamilySpec(FamilyKind.SYM_DET, 3, 2))

    def refuse(nvars, d):
        raise AssertionError("the rank path listed monomial labels")

    monkeypatch.setattr("lefkit.macaulay.monomials_of_degree", refuse)
    assert hilbert_function(f).values == (1, 6, 21, 28, 21, 6, 1)
    symmetry = family_symmetry(FamilySpec(FamilyKind.SYM_DET, 3, 2))
    assert hilbert_function(f, symmetry).values == (1, 6, 21, 28, 21, 6, 1)


def _within_default_budget(spec):
    try:
        ensure_within_budget(spec.nvars, spec.socle_degree)
    except TooLargeError:
        return False
    return True


# Every sym-det, generic-det and Pfaffian F = N^s with n <= 4 and s <= 3
# that the default cell budget admits.
CAPPED_GRID = [
    (kind, n, s)
    for kind, sizes in [
        (FamilyKind.SYM_DET, (1, 2, 3, 4)),
        (FamilyKind.GENERIC_DET, (1, 2, 3, 4)),
        (FamilyKind.PFAFFIAN, (2, 4)),
    ]
    for n in sizes
    for s in (1, 2, 3)
    if _within_default_budget(FamilySpec(kind, n, s))
]


@pytest.mark.parametrize("kind,n,s", CAPPED_GRID + [
    (FamilyKind.PFAFFIAN, 6, 1), (FamilyKind.PFAFFIAN, 6, 2),
])
def test_symmetric_hilbert_function_matches_generic(kind, n, s):
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    assert hilbert_function(f, family_symmetry(spec)) == hilbert_function(f)


def test_symmetric_path_ranks_densely_and_generic_path_by_mat_rank(monkeypatch):
    spec = FamilySpec(FamilyKind.SYM_DET, 3, 2)
    f, symmetry = make_invariant(spec), family_symmetry(spec)
    expected = (1, 6, 21, 28, 21, 6, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("hilbert_function ran the other path's rank kernel")

    ranked = []

    def recording(rows):
        ranked.append(rows)
        return dense_rank(rows)

    with monkeypatch.context() as patch:
        patch.setattr("lefkit.macaulay.mat_rank", refuse)
        patch.setattr("lefkit.exactmath._rank_mod_p", refuse)
        patch.setattr("lefkit.macaulay.dense_rank", recording)
        assert hilbert_function(f, symmetry).values == expected
    assert ranked and all(len(rows) <= len(rows[0]) for rows in ranked)
    monkeypatch.setattr("lefkit.macaulay.dense_rank", refuse)
    assert hilbert_function(f).values == expected


def _representative_cells(plan, cells):
    """The (row, column, entry) cells whose row weight is the least key of
    its orbit, as the orbit table decides."""
    _, shift, table, close, _ = plan
    kept = set()
    for mu, _, rest, entry in cells:
        w = mu >> shift
        size = table.get(w)
        if (close(w) if size is None else size):
            kept.add((mu, rest, entry))
    return kept


def _walk_cells(f, steps, low, high, caps=None):
    """(row key, degree, column key, entry) of every cell the walk makes:
    each divisor of each of F's integer terms, as the library walks them."""
    return [
        (mu, deg, whole - mu, entry)
        for expo, whole, value in _integer_terms(f, steps)[1]
        for mu, deg, entry in _divisors(expo, steps, low, high, value, caps)
    ]


@pytest.mark.parametrize("kind,n,s", CAPPED_GRID)
def test_capped_walk_keeps_every_representative_cell(kind, n, s):
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    c = spec.socle_degree
    plan = _walk_plan(f, c, family_symmetry(spec))
    steps, _, _, _, caps = plan
    capped = _walk_cells(f, steps, 0, c, caps)
    uncapped = _walk_cells(f, steps, 0, c)
    assert len(capped) == len({(mu, rest) for mu, _, rest, _ in capped})
    assert len(capped) <= len(uncapped)
    assert _representative_cells(plan, capped) == _representative_cells(plan, uncapped)
    if n >= 3:  # the cap prunes
        assert len(capped) < len(uncapped)


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2), (FamilyKind.SYM_DET, 2, 3),
    (FamilyKind.GENERIC_DET, 3, 1), (FamilyKind.GENERIC_DET, 2, 3),
    (FamilyKind.PFAFFIAN, 6, 1), (FamilyKind.PFAFFIAN, 4, 3),
    (FamilyKind.QUADRIC, 4, 3),
])
def test_uncapped_walk_is_the_box_oracle(kind, n, s):
    """Uncapped, the walk lists exactly the box's divisors in the window,
    in its lexicographic order, with the same keys and values: on the
    symmetric path's weight-carrying steps (monomial keys for a quadric)
    and on the plain monomial keys of the placed build."""
    spec = FamilySpec(kind, n, s)
    f, c = make_invariant(spec), spec.socle_degree
    windows = [(0, c), (0, c - 1), (0, c // 2)] + [(i, i) for i in range(c + 1)]
    walk_steps = _walk_plan(f, c, family_symmetry(spec))[0]
    for steps in (walk_steps, _steps(c + 1, f.nvars)):
        for expo, coeff in f.terms():
            value = coeff.numerator
            for low, high in windows:
                assert (_divisors(expo, steps, low, high, value)
                        == naive_divisors(expo, steps, low, high, value))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=5),
    st.integers(-1, 21), st.integers(-1, 21), st.integers(0, 2),
)
def test_uncapped_walk_is_the_box_oracle_on_any_window(expo, low, high, extra):
    """Zero exponents, empty windows and windows past the term's degree."""
    steps = _steps(sum(expo) + 1 + extra, len(expo))
    walked = _divisors(expo, steps, low, high, 3)
    assert walked == naive_divisors(expo, steps, low, high, 3)


def test_capped_walk_is_the_filtered_box_oracle_with_long_caps():
    """Caps of three entries (which no family's plan makes today) and
    checks, on the symmetric path's steps for sym-det 3 4: the walk keeps
    exactly the box's divisors that pass them variable by variable."""
    spec = FamilySpec(FamilyKind.SYM_DET, 3, 4)
    f, c = make_invariant(spec), spec.socle_degree
    steps = _walk_plan(f, c, family_symmetry(spec))[0]
    # the weight fields of sym-det 3's keys: 5 bits each from bit 23
    fields = [(23, 28), (23, 33), (28, 33)]
    cap3 = tuple((a, b, 1, 31) for a, b in fields)
    check = tuple((a, b, 31) for a, b in fields[:2])
    caps = [((), ()), ((), ()), ((), check), (cap3, ()), (cap3, check),
            (cap3[::-1], check[::-1])]
    kept = total = 0
    for expo, coeff in f.terms():
        for low, high in [(0, c), (0, c // 2), (2, 2)]:
            walked = _divisors(expo, steps, low, high, coeff.numerator, caps)
            assert walked == naive_divisors(
                expo, steps, low, high, coeff.numerator, caps)
            kept += len(walked)
            total += len(naive_divisors(expo, steps, low, high))
    assert 0 < kept < total


_cap_entries = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.integers(1, 3),
    st.sampled_from([3, 7, 15]),
)
_check_entries = st.tuples(
    st.integers(0, 12), st.integers(0, 12), st.sampled_from([3, 7, 15]),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_capped_walk_is_the_filtered_box_oracle(data):
    """Caps of 0-3 entries and checks of 0-2, drawn for each variable, on
    drawn steps and windows."""
    expo = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    steps = data.draw(st.lists(
        st.integers(1, 1 << 14), min_size=len(expo), max_size=len(expo)))
    caps = data.draw(st.lists(
        st.tuples(
            st.lists(_cap_entries, max_size=3).map(tuple),
            st.lists(_check_entries, max_size=2).map(tuple),
        ),
        min_size=len(expo), max_size=len(expo),
    ))
    low, high = data.draw(st.integers(-1, 16)), data.draw(st.integers(-1, 16))
    walked = _divisors(expo, steps, low, high, 5, caps)
    assert walked == naive_divisors(expo, steps, low, high, 5, caps)


@pytest.mark.parametrize("kind,n,s,pairs", [
    (FamilyKind.SYM_DET, 3, 4, 5_018), (FamilyKind.GENERIC_DET, 3, 2, 181),
    (FamilyKind.SYM_DET, 4, 3, 59_010), (FamilyKind.PFAFFIAN, 8, 2, 60_359),
])
def test_capped_walk_pair_counts(kind, n, s, pairs):
    spec = FamilySpec(kind, n, s)
    f, c = make_invariant(spec), spec.socle_degree
    steps, _, _, _, caps = _walk_plan(f, c, family_symmetry(spec))
    assert len(_walk_cells(f, steps, 0, c, caps)) == pairs


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2), (FamilyKind.SYM_DET, 4, 1),
    (FamilyKind.GENERIC_DET, 3, 2), (FamilyKind.PFAFFIAN, 6, 1),
])
def test_derived_transpositions_lie_in_the_orbits(kind, n, s):
    """Each transposition the cap uses maps a sample weight into its own
    orbit, the keys ``close`` enters in a fresh table; and the orbit's
    least key, the one the table keeps, has w_a >= w_b for each of them."""
    spec = FamilySpec(kind, n, s)
    f, c, symmetry = make_invariant(spec), spec.socle_degree, family_symmetry(spec)
    weights = symmetry.weights
    dims = len(weights[0])
    rng = random.Random(n * 10 + s)
    for _ in range(12):
        _, bits, table, close, swaps = _weight_orbits(f, c, symmetry)
        assert swaps and all(0 <= a < b < dims for a, b in swaps)
        wbase = 1 << bits
        expo = [0] * spec.nvars
        for _ in range(rng.randrange(c + 1)):
            expo[rng.randrange(spec.nvars)] += 1
        w = [sum(e * wk[a] for e, wk in zip(expo, weights)) for a in range(dims)]
        close(_weight_key(w, wbase))
        orbit = set(table)
        for a, b in swaps:
            swapped = w[:]
            swapped[a], swapped[b] = w[b], w[a]
            assert _weight_key(swapped, wbase) in orbit
        [least] = [k for k, size in table.items() if size]
        assert least == min(orbit)
        v = [least >> a * bits & (wbase - 1) for a in range(dims)]
        assert all(v[a] >= v[b] for a, b in swaps)


@pytest.mark.parametrize("kind,n,s,expected", [
    (FamilyKind.SYM_DET, 3, 4, (1, 6, 21, 56, 126, 186, 209, 186, 126, 56, 21, 6, 1)),
    (FamilyKind.GENERIC_DET, 3, 2, (1, 9, 45, 65, 45, 9, 1)),
])
def test_symmetric_hilbert_function_of_benchmark_instances(kind, n, s, expected):
    spec = FamilySpec(kind, n, s)
    fn = hilbert_function(make_invariant(spec), family_symmetry(spec))
    assert fn.values == expected


def test_quadrics_have_no_family_symmetry():
    for n in (2, 3, 5):
        assert family_symmetry(FamilySpec(FamilyKind.QUADRIC, n)) is None


def _unsigned(symmetry):
    gens = tuple(tuple((image, 1) for image, _ in gen) for gen in symmetry.generators)
    return dataclasses.replace(symmetry, generators=gens)


def _x11_of_weight_e1(symmetry):  # F = x11 x22 - x12^2 is then not homogeneous
    return dataclasses.replace(symmetry, weights=((1, 0),) + symmetry.weights[1:])


def _swap_x11_x12(symmetry):  # weights 2e_1 and e_1 + e_2 are not permuted
    return dataclasses.replace(symmetry, generators=(((1, 1), (0, 1), (2, 1)),))


def _repeated_image(symmetry):
    return dataclasses.replace(symmetry, generators=(((0, 1), (0, 1), (2, 1)),))


def _float_weights(symmetry):  # every other check passes on 1.5 times the weights
    weights = tuple(tuple(1.5 * v for v in w) for w in symmetry.weights)
    return dataclasses.replace(symmetry, weights=weights)


def _bare_images(symmetry):  # each entry an image with no sign
    gens = tuple(tuple(image for image, _ in gen) for gen in symmetry.generators)
    return dataclasses.replace(symmetry, generators=gens)


@pytest.mark.parametrize("kind,n,spoil,message", [
    (FamilyKind.PFAFFIAN, 4, _unsigned, "does not map F"),
    (FamilyKind.SYM_DET, 2, _x11_of_weight_e1, "not homogeneous"),
    (FamilyKind.SYM_DET, 2, _swap_x11_x12, "does not permute the weight"),
    (FamilyKind.SYM_DET, 2, _repeated_image, "not a signed variable permutation"),
    (FamilyKind.SYM_DET, 2, _float_weights, "one non-negative vector per variable"),
    (FamilyKind.SYM_DET, 2, _bare_images, "not a signed variable permutation"),
])
def test_false_symmetry_claims_are_refused(kind, n, spoil, message):
    spec = FamilySpec(kind, n)
    with pytest.raises(InvariantError, match=message):
        hilbert_function(make_invariant(spec), spoil(family_symmetry(spec)))


def test_hilbert_det3_narayana():
    assert hilbert_function(DET3).values == (1, 6, 6, 1)


def test_hilbert_det2_squared():
    f = make_invariant(FamilySpec(FamilyKind.SYM_DET, 2, 2))
    assert hilbert_function(f).values == (1, 3, 6, 3, 1)


def test_hilbert_quadric_any_n():
    for n in (2, 3, 5):
        f = make_invariant(FamilySpec(FamilyKind.QUADRIC, n))
        assert hilbert_function(f).values == (1, n, 1)


def test_hilbert_text():
    assert hilbert_function(DET3).as_text() == "(1, 6, 6, 1)"


def test_annihilator_empty_for_full_pairing():
    assert annihilator_basis(QUADRIC2, 1) == []


def test_annihilator_of_cube():
    (p,) = annihilator_basis(CUBE, 1)
    assert p == Poly(2, {(0, 1): 1})


def test_annihilator_det2_degree_two():
    basis = annihilator_basis(DET2, 2)
    assert len(basis) == 5  # dim R_2 = 6, h_2 = 1
    for p in basis:
        assert naive_contract(p, DET2).is_zero()


def test_annihilator_recontracts_to_zero_everywhere():
    for n, s in [(2, 1), (2, 2), (3, 1)]:
        f = make_invariant(FamilySpec(FamilyKind.SYM_DET, n, s))
        c = f.homogeneous_degree()
        for i in range(c + 1):
            basis = annihilator_basis(f, i)
            assert len(basis) == dim_of_degree(f.nvars, i) - hilbert_function(f).values[i]
            for p in basis:
                assert naive_contract(p, f).is_zero()


def test_socle_check():
    # a returned Hilbert function is symmetric with h_0 = 1, so h_c = 1
    assert hilbert_function(DET3).values[-1] == 1
    assert hilbert_function(make_invariant(FamilySpec(FamilyKind.PFAFFIAN, 4))).values[-1] == 1
    assert hilbert_function(CUBE).values == (1, 1, 1, 1)


def test_pfaffian_hilbert():
    f = make_invariant(FamilySpec(FamilyKind.PFAFFIAN, 4))
    assert hilbert_function(f).values == (1, 6, 1)


def test_transpose_rank_duality():
    for f in (DET3, make_invariant(FamilySpec(FamilyKind.SYM_DET, 2, 2))):
        c = f.homogeneous_degree()
        for i in range(c + 1):
            a = mat_rank(catalecticant(f, i).matrix)
            b = mat_rank(catalecticant(f, c - i).matrix)
            assert a == b


def test_monotone_bound():
    for f in (DET2, DET3, CUBE):
        c = f.homogeneous_degree()
        fn = hilbert_function(f)
        for i, h in enumerate(fn.values):
            assert h <= min(dim_of_degree(f.nvars, i), dim_of_degree(f.nvars, c - i))


def test_corner_variable_power_membership():
    # x_nn^(s+1) lies in the annihilator while x_nn^s does not
    for n, s in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        spec = FamilySpec(FamilyKind.SYM_DET, n, s)
        f = make_invariant(spec)
        corner = Poly.variable(spec.nvars, spec.nvars - 1)  # x_nn is last in layout
        assert naive_contract(poly_pow(corner, s + 1), f).is_zero()
        assert not naive_contract(poly_pow(corner, s), f).is_zero()


def test_budget_guard():
    assert max_catalecticant_cells(3, 2) == 3 * 3
    with pytest.raises(TooLargeError):
        ensure_within_budget(3, 2, budget=8)
    ensure_within_budget(3, 2, budget=9)
    with pytest.raises(ValueError):
        resolve_budget(0)


def test_largest_catalecticant_is_the_middle_one():
    for nvars in range(1, 7):
        for c in range(11):
            assert max_catalecticant_cells(nvars, c) == max(
                dim_of_degree(nvars, i) * dim_of_degree(nvars, c - i)
                for i in range(c + 1)
            )


def test_budget_message_for_unprintable_counts():
    # str() refuses ints past the int-to-str limit (4300 digits by default);
    # such a count is given by its bit length instead
    with pytest.raises(TooLargeError, match=r"^largest catalecticant needs 36 cells"):
        ensure_within_budget(3, 4, budget=9)
    with pytest.raises(TooLargeError, match=r"needs at least 2\^\d+ cells, budget is 9$"):
        ensure_within_budget(4 * 10**6, 2000, budget=9)
    with pytest.raises(TooLargeError, match=r"^1000* samples .* need at least 2\^\d+ cells"):
        ensure_within_budget(10**4, 1000, budget=10**4000, samples=10**3000)
    with pytest.raises(TooLargeError, match=r"^largest .* budget is at least 2\^\d+$"):
        ensure_within_budget(4 * 10**6, 20000, budget=10**5000)


def test_budget_env_var_is_ignored(monkeypatch):
    # the budget is the explicit value, else the default; the environment
    # plays no part
    monkeypatch.setenv("LEFKIT_BUDGET", "1")
    assert resolve_budget() == DEFAULT_CELL_BUDGET
    assert resolve_budget(9) == 9
    ensure_within_budget(3, 2)


def test_report_rows(capsys):
    assert main(["hilbert", "--family", "sym-det", "--n", "3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["rank"] for r in rows] == list(hilbert_function(DET3).values)
    assert rows[1] == {"degree": 1, "dim_R_i": 6, "rank": 6, "kernel_dim": 0}
    assert rows[2] == {"degree": 2, "dim_R_i": 21, "rank": 6, "kernel_dim": 15}
