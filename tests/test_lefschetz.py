import json
import random
from fractions import Fraction

import pytest

from lefkit.cli import main
from lefkit.errors import (
    NotLinearError,
    OutOfRangeError,
    TooLargeError,
    VarMismatchError,
    ZeroPolynomialError,
)
from lefkit.families import (
    FamilyKind,
    FamilySpec,
    canonical_lefschetz,
    coeffs_to_matrix,
    deficient_candidates,
    make_invariant,
    orbit_test,
)
from lefkit.lefschetz import (
    default_degree_basis,
    hessian_criterion_at,
    hessian_determinants_at,
    higher_hessian,
    random_linear_form,
    slp_check,
    verify_theorem,
)
from lefkit.macaulay import hilbert_function
from lefkit.polyring import Poly, monomials_of_degree, scale_variables

from _oracles import (
    naive_achieved_ranks,
    naive_catalecticant,
    naive_higher_hessian,
    naive_rank,
)

SYM2 = FamilySpec(FamilyKind.SYM_DET, 2)
SYM3 = FamilySpec(FamilyKind.SYM_DET, 3)
DET2 = make_invariant(SYM2)
DET3 = make_invariant(SYM3)


def linear(spec, coeffs):
    total = Poly.zero(spec.nvars)
    for idx, c in coeffs.items():
        total = total + Poly.variable(spec.nvars, idx).scale(c)
    return total


def test_trace_is_lefschetz_for_det3():
    report = slp_check(DET3, canonical_lefschetz(SYM3))
    assert report.verdict
    assert [(r.i, r.required, r.achieved) for r in report.rows] == [(0, 1, 1), (1, 6, 6)]


def test_corner_variable_fails_at_degree_zero():
    report = slp_check(DET2, Poly.variable(3, 0))  # L = x11, d11^2 det = 0
    assert not report.verdict
    assert report.rows[0].achieved == 0 and report.rows[0].required == 1


def test_quadric_first_coordinate():
    spec = FamilySpec(FamilyKind.QUADRIC, 3)
    report = slp_check(make_invariant(spec), Poly.variable(3, 0))
    assert report.verdict
    assert report.rows[1].achieved == 3  # x L^0 is the identity on A_1


def test_slp_input_validation():
    with pytest.raises(ZeroPolynomialError):
        slp_check(Poly.zero(3), Poly.variable(3, 0))
    with pytest.raises(NotLinearError):
        slp_check(DET2, DET2)
    with pytest.raises(NotLinearError):
        slp_check(DET2, Poly.zero(3))
    with pytest.raises(VarMismatchError):
        slp_check(DET2, Poly.variable(4, 0))


def test_report_dict_shape(capsys):
    # the report is assembled by the CLI from slp_check's rows and verdict
    report = slp_check(DET2, canonical_lefschetz(SYM2))
    assert main(["slp", "--family", "sym-det", "--n", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"] == [
        {"i": r.i, "required": r.required, "achieved": r.achieved, "pass": r.passed}
        for r in report.rows
    ]
    assert data["verdict"] is report.verdict
    assert data["family"] == "sym-det" and data["n"] == 2 and data["s"] == 1
    assert data["L"] == {"x11": "1", "x22": "1"}
    assert data["rows"][0] == {"i": 0, "required": 1, "achieved": 1, "pass": True}
    assert data["verdict"] is True


def test_achieved_never_exceeds_required():
    rng = random.Random(2)
    targets = hilbert_function(DET3).values
    for _ in range(15):
        L = random_linear_form(6, rng)
        report = slp_check(DET3, L, required=targets)
        for row in report.rows:
            assert row.achieved <= row.required


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.GENERIC_DET, 2, 2),
    (FamilyKind.PFAFFIAN, 4, 2),
    (FamilyKind.QUADRIC, 4, 2),
])
def test_achieved_ranks_match_power_oracle(kind, n, s):
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    rng = random.Random(n * 10 + s)
    forms = [canonical_lefschetz(spec), *deficient_candidates(spec)]
    forms += [random_linear_form(spec.nvars, rng) for _ in range(2)]
    for L in forms:
        achieved = [row.achieved for row in slp_check(f, L).rows]
        assert achieved == naive_achieved_ranks(f, L)


def test_report_rows_invariant_under_scaling():
    rng = random.Random(4)
    for _ in range(5):
        L = random_linear_form(6, rng)
        a = slp_check(DET3, L)
        b = slp_check(DET3, L.scale(2))
        assert a.rows == b.rows


# --- higher Hessians ---------------------------------------------------------


def test_hessian_diagonal_quadric():
    f = Poly(2, {(2, 0): 1, (0, 2): 1})
    matrix = higher_hessian(f, 1)
    values = [[entry.constant_term() for entry in row] for row in matrix]
    assert values == [[2, 0], [0, 2]]


def test_hessian_det2_classical():
    matrix = higher_hessian(DET2, 1)  # basis x11, x12, x22
    values = [[entry.constant_term() for entry in row] for row in matrix]
    assert values == [[0, 0, 1], [0, -2, 0], [1, 0, 0]]
    dets = hessian_determinants_at(DET2, canonical_lefschetz(SYM2))
    assert dets[1] == 2


def test_hessian_det3_nonvanishing_at_trace():
    matrix = higher_hessian(DET3, 1)
    assert len(matrix) == 6
    dets = hessian_determinants_at(DET3, canonical_lefschetz(SYM3))
    assert all(dets)


def test_default_basis_spans():
    basis = default_degree_basis(DET3, 1)
    assert len(basis) == 6
    f = make_invariant(FamilySpec(FamilyKind.SYM_DET, 2, 2))
    assert len(default_degree_basis(f, 2)) == 6


def test_hessian_order_out_of_range():
    f = make_invariant(FamilySpec(FamilyKind.SYM_DET, 2, 2))  # c = 4
    assert len(higher_hessian(f, 2)) == 6
    for i in (-1, 3):
        with pytest.raises(OutOfRangeError):
            higher_hessian(f, i)


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.GENERIC_DET, 2, 2),
    (FamilyKind.PFAFFIAN, 4, 2),
    (FamilyKind.QUADRIC, 4, 2),
])
def test_hessian_matches_product_oracle(kind, n, s):
    f = make_invariant(FamilySpec(kind, n, s))
    rng = random.Random(n * 10 + s)
    weights = [Fraction(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(f.nvars)]
    for g in (f, scale_variables(f, weights)):
        c = g.homogeneous_degree()
        for i in range(c // 2 + 1):
            basis = default_degree_basis(g, i)
            # the basis rows are a maximal independent set of Cat_i rows
            cat = naive_catalecticant(g, i).dense()
            index = {m: r for r, m in enumerate(monomials_of_degree(g.nvars, i))}
            picked = [cat[index[b]] for b in basis]
            assert naive_rank(picked) == len(basis) == naive_rank(cat)
            assert higher_hessian(g, i) == naive_higher_hessian(g, basis)


def test_hessian_criterion_examples():
    assert hessian_criterion_at(DET2, canonical_lefschetz(SYM2))
    assert not hessian_criterion_at(DET2, Poly.variable(3, 0))
    quadric = FamilySpec(FamilyKind.QUADRIC, 3)
    assert hessian_criterion_at(make_invariant(quadric), Poly.variable(3, 0))


def test_hessian_criterion_matches_slp():
    rng = random.Random(9)
    targets = hilbert_function(DET2).values
    for _ in range(25):
        L = random_linear_form(3, rng)
        assert hessian_criterion_at(DET2, L) == slp_check(DET2, L, required=targets).verdict


# --- theorem-level -----------------------------------------------------------


def test_verify_sym2():
    summary = verify_theorem(SYM2, samples=50, seed=7)
    assert summary.mismatches == 0
    assert summary.counterexample is None
    assert len(summary.samples) == 52  # canonical + 1 deficient + 50 random


def test_verify_includes_forced_failures():
    summary = verify_theorem(FamilySpec(FamilyKind.SYM_DET, 3, 2), samples=5, seed=7)
    forced = [s for s in summary.samples if s.forced]
    deficient = [s for s in forced if not s.orbit_verdict]
    assert len(deficient) == 2
    assert all(not s.slp_verdict for s in deficient)
    assert summary.mismatches == 0


def test_verify_pfaffian_degenerate_candidate():
    spec = FamilySpec(FamilyKind.PFAFFIAN, 4)
    summary = verify_theorem(spec, samples=30, seed=7)
    assert summary.mismatches == 0
    # the forced x12 candidate fails both predicates
    degenerate = [s for s in summary.samples if s.forced and not s.orbit_verdict]
    assert degenerate and all(not s.slp_verdict for s in degenerate)


def test_verify_reports_are_deterministic():
    a = verify_theorem(SYM2, samples=10, seed=3)
    b = verify_theorem(SYM2, samples=10, seed=3)
    assert a == b


def test_verify_rejects_negative_samples():
    with pytest.raises(OutOfRangeError):
        verify_theorem(SYM2, samples=-3, seed=0)


def test_verify_respects_budget():
    with pytest.raises(TooLargeError):
        verify_theorem(FamilySpec(FamilyKind.SYM_DET, 3, 2), samples=1, seed=0, budget=10)


def test_k_equivariance_of_verdict():
    # congruence by an invertible integer matrix preserves the verdict
    rng = random.Random(12)
    targets = hilbert_function(DET3).values
    checked = 0
    while checked < 5:
        g = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        det = (
            g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
        )
        if det == 0:
            continue
        L = random_linear_form(6, rng)
        m = coeffs_to_matrix(SYM3, L).dense()
        transformed = [
            [
                sum(g[k][i] * m[k][l] * g[l][j] for k in range(3) for l in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]
        coeffs = {}
        for i in range(3):
            for j in range(i, 3):
                coeffs[SYM3.var_index(i + 1, j + 1)] = transformed[i][j]
        L2 = linear(SYM3, coeffs)
        if L2.is_zero():
            continue
        a = slp_check(DET3, L, required=targets).verdict
        b = slp_check(DET3, L2, required=targets).verdict
        assert a == b == orbit_test(SYM3, L)
        checked += 1


@pytest.mark.parametrize("fam,n", [
    (FamilyKind.SYM_DET, 2),
    (FamilyKind.GENERIC_DET, 2),
    (FamilyKind.PFAFFIAN, 4),
    (FamilyKind.QUADRIC, 3),
])
def test_verdict_independent_of_power(fam, n):
    spec1 = FamilySpec(fam, n, 1)
    spec2 = FamilySpec(fam, n, 2)
    f1, f2 = make_invariant(spec1), make_invariant(spec2)
    t1, t2 = hilbert_function(f1).values, hilbert_function(f2).values
    rng = random.Random(21)
    for _ in range(10):
        L = random_linear_form(spec1.nvars, rng)
        assert (
            slp_check(f1, L, required=t1).verdict
            == slp_check(f2, L, required=t2).verdict
        )
