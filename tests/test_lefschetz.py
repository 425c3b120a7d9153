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
from lefkit import lefschetz
from lefkit.exactmath import PROBE_PRIME, _rank_mod_p, mat_rank
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
    HessianTable,
    SlpTable,
    default_degree_basis,
    hessian_determinants_at,
    random_linear_form,
    slp_check,
    verify_theorem,
)
from lefkit.macaulay import catalecticant, hilbert_function
from lefkit.polyring import Poly, monomials_of_degree, scale_variables

from _oracles import (
    naive_achieved_ranks,
    naive_catalecticant,
    naive_det,
    naive_evaluate,
    naive_higher_hessian,
    naive_rank,
    oracle_pivot_rows,
    perm_det_frac,
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
    other = SlpTable(make_invariant(FamilySpec(FamilyKind.QUADRIC, 3)))
    with pytest.raises(ValueError):
        slp_check(DET2, Poly.variable(3, 0), other)


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
    table = SlpTable(DET3)
    for _ in range(15):
        L = random_linear_form(6, rng)
        report = slp_check(DET3, L, table)
        for row in report.rows:
            assert row.achieved <= row.required


# Matrix entries of a form with coefficients 3/2 and -5/7 and unlike
# denominators.  Outside the quadrics (whose rational forms are all in the
# open orbit) the matrix is singular, and scaling one coordinate wrongly
# (keeping numerators, say) makes it nonsingular, which raises the ranks.
RATIONAL_FORMS = {
    FamilyKind.SYM_DET: {(1, 1): Fraction(3, 2), (1, 2): 3, (2, 2): 6, (3, 3): Fraction(-5, 7)},
    FamilyKind.GENERIC_DET: {(1, 1): Fraction(3, 2), (1, 2): Fraction(-30, 7),
                             (2, 1): Fraction(1, 4), (2, 2): Fraction(-5, 7)},
    FamilyKind.PFAFFIAN: {(1, 2): Fraction(3, 2), (3, 4): Fraction(-5, 7),
                          (1, 3): Fraction(-30, 7), (2, 4): Fraction(1, 4)},
    FamilyKind.QUADRIC: {(1, 0): Fraction(3, 2), (4, 0): Fraction(-5, 7)},
}


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.GENERIC_DET, 2, 2),
    (FamilyKind.PFAFFIAN, 4, 2),
    (FamilyKind.QUADRIC, 4, 2),
])
def test_achieved_ranks_match_power_oracle(kind, n, s, monkeypatch):
    # Every form runs through one shared table, as in verify_theorem, for F
    # and for a weighted F(w*x), against which L(x/w) has the ranks of L.
    # At the small primes 7 and 2, which slp_check reads at call time, the
    # residue probe often falls short and the exact fallback decides.
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    rng = random.Random(n * 10 + s)
    deficient = deficient_candidates(spec)
    rational = linear(spec, {
        spec.var_index(i, j): v for (i, j), v in RATIONAL_FORMS[kind].items()
    })
    assert orbit_test(spec, rational) == (kind is FamilyKind.QUADRIC)
    forms = [canonical_lefschetz(spec), *deficient, rational]
    forms += [random_linear_form(spec.nvars, rng) for _ in range(2)]
    forms += [L.scale(Fraction(2, 3)) for L in deficient[:1]]
    weights = [Fraction(rng.randint(1, 7), rng.randint(1, 5)) for _ in range(f.nvars)]
    inverse = [1 / w for w in weights]
    passes = []
    for g, shift in ((f, None), (scale_variables(f, weights), inverse)):
        table = SlpTable(g)
        passes.append([])
        for L in forms:
            L = L if shift is None else scale_variables(L, shift)
            expected = naive_achieved_ranks(g, L)
            for prime in (PROBE_PRIME, 7, 2):
                monkeypatch.setattr(lefschetz, "PROBE_PRIME", prime)
                achieved = [row.achieved for row in slp_check(g, L, table).rows]
                assert achieved == expected
            passes[-1].append(achieved)
    assert passes[0] == passes[1]


def test_probe_is_skipped_where_the_rank_cannot_reach_the_rows(monkeypatch):
    # det^3 on 3x3 symmetric matrices has h_4 = 81 but 126 monomials of
    # degree 4.  The rank of N is at most h_4, so for a random L the i = 4
    # matrix, with all 126 rows nonzero, goes straight to mat_rank.
    probed = []

    def recording(rows, ncols, prime):
        probed.append(ncols)
        return _rank_mod_p(rows, ncols, prime)

    monkeypatch.setattr(lefschetz, "_rank_mod_p", recording)
    f = make_invariant(FamilySpec(FamilyKind.SYM_DET, 3, 3))
    report = slp_check(f, random_linear_form(6, random.Random(5)))
    assert [(r.required, r.achieved) for r in report.rows] == [
        (1, 1), (6, 6), (21, 21), (56, 56), (81, 81)]
    assert probed == [1, 6, 21, 56]


def test_row_vanishing_mod_p_is_still_counted(monkeypatch):
    # L = 7 x11 + 7 x22 + x33 is nonsingular, so Lefschetz for det on 3x3
    # symmetric matrices.  Mod 7 its i = 0 matrix (det at l, times 3!) is
    # 0, and at i = 1 the rows of x33, x13 and x23 (second derivatives of
    # det, here (x22, x11, -2 x12) and -2 x22, -2 x11 times constants) are
    # zero mod 7 but not over the integers.  The residue rank, 0 and then
    # 3, equals the count of rows with a nonzero residue, so counting rows
    # by their residues would confirm it; the exact count does not, and
    # both degrees go to mat_rank.
    monkeypatch.setattr(lefschetz, "PROBE_PRIME", 7)
    L = linear(SYM3, {SYM3.var_index(1, 1): 7, SYM3.var_index(2, 2): 7,
                      SYM3.var_index(3, 3): 1})
    table = SlpTable(DET3)
    powers = [[int(x) ** e for e in range(4)] for x in L.linear_coefficients()]
    for d, exact_rows in zip(table.degrees, (1, 6)):
        values = d.values_at(powers)
        residues = [v % 7 for v in values]
        rows = [(cols, [residues[k] for k in ids]) for cols, ids in d.cells]
        residue_rows = sum(any(r) for _, r in rows)
        assert _rank_mod_p(rows, len(rows), 7) == residue_rows < exact_rows
        assert sum(any(values[k] for k in ids) for _, ids in d.cells) == exact_rows
    report = slp_check(DET3, L, table)
    assert [row.achieved for row in report.rows] == naive_achieved_ranks(DET3, L) == [1, 6]
    assert report.verdict and orbit_test(SYM3, L)


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.GENERIC_DET, 2, 2),
    (FamilyKind.PFAFFIAN, 4, 2),
    (FamilyKind.QUADRIC, 4, 2),
])
def test_middle_row_is_the_catalecticant_rank(kind, n, s):
    # slp_check takes the c = 2i row from `required` instead of ranking it
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    c = f.homogeneous_degree()
    required = hilbert_function(f).values
    assert c % 2 == 0
    assert required[c // 2] == mat_rank(catalecticant(f, c // 2).matrix)
    for L in [canonical_lefschetz(spec), *deficient_candidates(spec)]:
        assert slp_check(f, L).rows[c // 2].achieved == required[c // 2]


def test_report_rows_invariant_under_scaling():
    rng = random.Random(4)
    for _ in range(5):
        L = random_linear_form(6, rng)
        a = slp_check(DET3, L)
        for scaled in (L.scale(2), L.scale(Fraction(3, 7))):
            assert slp_check(DET3, scaled).rows == a.rows


# --- higher Hessians ---------------------------------------------------------


def test_hessian_diagonal_quadric():
    f = Poly(2, {(2, 0): 1, (0, 2): 1})
    # the i = 1 Hessian is the constant matrix [[2, 0], [0, 2]]
    assert hessian_determinants_at(f, Poly.variable(2, 0)) == [1, 4]


def test_hessian_det2_classical():
    # basis x11, x12, x22: the i = 1 Hessian is [[0, 0, 1], [0, -2, 0], [1, 0, 0]]
    dets = hessian_determinants_at(DET2, canonical_lefschetz(SYM2))
    assert dets[1] == 2


def test_hessian_det3_nonvanishing_at_trace():
    dets = hessian_determinants_at(DET3, canonical_lefschetz(SYM3))
    assert len(dets) == 2 and all(dets)


def test_default_basis_spans():
    basis = default_degree_basis(DET3, 1)
    assert len(basis) == 6
    f = make_invariant(FamilySpec(FamilyKind.SYM_DET, 2, 2))
    assert len(default_degree_basis(f, 2)) == 6


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
            # and they are the pivot rows of the dense whole-matrix oracle
            labels = list(index)
            assert basis == [
                labels[r] for r in oracle_pivot_rows(naive_catalecticant(g, i))
            ]


def _oracle_det(rows):
    # permutation expansion while it is cheap, elimination beyond
    return perm_det_frac(rows) if len(rows) <= 6 else naive_det(rows)


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.GENERIC_DET, 2, 2),
    (FamilyKind.PFAFFIAN, 4, 2),
    (FamilyKind.QUADRIC, 4, 2),
])
def test_hessian_determinants_match_evaluated_oracle(kind, n, s):
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    nvars = f.nvars
    weights = [Fraction(k % 4 + 1, k % 3 + 1) for k in range(nvars)]
    # a rational point with a zero coordinate and several denominators
    coords = [Fraction((-1) ** k * (k + 2), k % 3 + 2) for k in range(nvars)]
    coords[1] = Fraction(0)
    forms = [canonical_lefschetz(spec), linear(spec, dict(enumerate(coords)))]
    deficient = deficient_candidates(spec)[:1]  # quadrics have none
    for g in (f, scale_variables(f, weights)):
        c = g.homogeneous_degree()
        table = HessianTable(g)
        naive = [
            naive_higher_hessian(g, default_degree_basis(g, i))
            for i in range(c // 2 + 1)
        ]
        for L in forms + deficient:
            point = L.linear_coefficients()
            expected = [
                _oracle_det([[naive_evaluate(e, point) for e in row]
                             for row in matrix])
                for matrix in naive
            ]
            assert hessian_determinants_at(g, L) == expected
            assert hessian_determinants_at(g, L, table) == expected
            if L in deficient:
                assert not all(expected)


def test_hessian_criterion_examples():
    assert all(hessian_determinants_at(DET2, canonical_lefschetz(SYM2)))
    assert not all(hessian_determinants_at(DET2, Poly.variable(3, 0)))
    quadric = FamilySpec(FamilyKind.QUADRIC, 3)
    assert all(hessian_determinants_at(make_invariant(quadric), Poly.variable(3, 0)))


def test_hessian_criterion_matches_slp():
    rng = random.Random(9)
    table, hessians = SlpTable(DET2), HessianTable(DET2)
    for _ in range(25):
        L = random_linear_form(3, rng)
        verdict = slp_check(DET2, L, table).verdict
        assert all(hessian_determinants_at(DET2, L, hessians)) == verdict


def test_hessian_table_of_another_f_is_refused():
    """The bases of det3 cover two Hessians; det3^2 has four."""
    det3_squared = make_invariant(FamilySpec(FamilyKind.SYM_DET, 3, 2))
    L = canonical_lefschetz(SYM3)
    assert len(hessian_determinants_at(det3_squared, L)) == 4
    with pytest.raises(ValueError, match="different F"):
        hessian_determinants_at(det3_squared, L, HessianTable(DET3))


def test_hessian_route_shares_no_code_with_the_routes_it_checks(monkeypatch):
    """default_degree_basis never builds the labelled catalecticant, and with
    its HessianTable supplied hessian_determinants_at uses neither macaulay's
    entry enumerator and divisor walk, nor SlpTable, nor a rank, nor the
    basis and its pivot rows again."""
    import lefkit.exactmath as exactmath
    import lefkit.lefschetz as lefschetz
    import lefkit.macaulay as macaulay

    def refuse(*args, **kwargs):
        raise AssertionError("the Hessian route called a shared function")

    spec = FamilySpec(FamilyKind.GENERIC_DET, 2, 2)
    f = make_invariant(spec)
    weighted = scale_variables(f, [Fraction(1, 2), 3, 1, Fraction(2, 3)])
    forms = [
        canonical_lefschetz(spec),
        linear(spec, {0: Fraction(3, 2), 2: -1, 3: Fraction(2, 5)}),
        deficient_candidates(spec)[0],
    ]
    cases = [(g, L, hessian_determinants_at(g, L)) for g in (f, weighted)
             for L in forms]
    monkeypatch.setattr(macaulay, "catalecticant", refuse)
    tables = {id(g): HessianTable(g) for g in (f, weighted)}
    for module, name in [
        (macaulay, "_entries"), (lefschetz, "_entries"),
        (macaulay, "_divisors"), (lefschetz, "_divisors"),
        (lefschetz, "SlpTable"),
        (exactmath, "mat_rank"), (lefschetz, "mat_rank"),
        (exactmath, "pivot_rows"), (lefschetz, "pivot_rows"),
        (lefschetz, "default_degree_basis"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    for g, L, expected in cases:
        assert hessian_determinants_at(g, L, tables[id(g)]) == expected
    assert not all(cases[-1][2])  # the deficient L reaches a zero determinant


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
    table = SlpTable(DET3)
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
        a = slp_check(DET3, L, table).verdict
        b = slp_check(DET3, L2, table).verdict
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
    t1, t2 = SlpTable(f1), SlpTable(f2)
    rng = random.Random(21)
    for _ in range(10):
        L = random_linear_form(spec1.nvars, rng)
        assert slp_check(f1, L, t1).verdict == slp_check(f2, L, t2).verdict
