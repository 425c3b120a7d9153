import itertools
import json
import random
from fractions import Fraction
from math import perm, prod
from types import SimpleNamespace

import pytest

from lefkit.cli import main
from lefkit.errors import (
    InvariantError,
    NotLinearError,
    OutOfRangeError,
    TooLargeError,
    VarMismatchError,
    ZeroPolynomialError,
)
from lefkit import exactmath, families, lefschetz
from lefkit.exactmath import PROBE_PRIME, _rank_mod_p, mat_rank, pivot_rows
from lefkit.families import (
    FamilyKind,
    FamilySpec,
    canonical_lefschetz,
    coeffs_to_matrix,
    deficient_candidates,
    family_symmetry,
    make_invariant,
    orbit_test,
)
from lefkit.lefschetz import (
    HessianTable,
    SlpTable,
    TheoremSample,
    TheoremSummary,
    default_degree_basis,
    _random_point,
    hessian_determinants_at,
    random_linear_form,
    slp_check,
    verify_theorem,
)
from lefkit.macaulay import (
    HilbertFn,
    _monomial,
    _placed_catalecticant,
    catalecticant,
    ensure_within_budget,
    hilbert_function,
)
from lefkit.polyring import Poly, monomials_of_degree, poly_mul, scale_variables

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
DET3_CUBED = make_invariant(FamilySpec(FamilyKind.SYM_DET, 3, 3))


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


X1, X2 = Poly.variable(3, 0), Poly.variable(3, 1)
# Each entry point that takes L, as (F, L) -> result on SYM2 (3 variables);
# orbit_test and coeffs_to_matrix take the family instead of F.
L_ENTRY_POINTS = {
    "slp_check": slp_check,
    "slp_check_with_table": lambda f, L: slp_check(f, L, SlpTable(DET2)),
    "hessian_determinants_at": hessian_determinants_at,
    "orbit_test": lambda f, L: orbit_test(SYM2, L),
    "coeffs_to_matrix": lambda f, L: coeffs_to_matrix(SYM2, L),
}
BAD_L = [
    ("zero_L", Poly.zero(3), NotLinearError),
    ("quadratic_L", poly_mul(X1, X2), NotLinearError),
    ("x1_plus_1", X1 + Poly.one(3), NotLinearError),
    ("L_in_4_variables", Poly.variable(4, 0), VarMismatchError),
]
BAD_F = [
    ("zero_F", Poly.zero(3), ZeroPolynomialError),
    ("inhomogeneous_F", DET2 + X1, ValueError),
]


@pytest.mark.parametrize("entry,f,L,error", [
    pytest.param(entry, DET2, L, error, id=f"{entry}-{name}")
    for entry in L_ENTRY_POINTS for name, L, error in BAD_L
] + [
    pytest.param(entry, f, X1, error, id=f"{entry}-{name}")
    for entry in ("slp_check", "hessian_determinants_at") for name, f, error in BAD_F
])
def test_entry_points_check_the_linear_form(entry, f, L, error):
    """Every entry point that takes L refuses a bad one with the same error
    type, and each one that takes F a bad F."""
    with pytest.raises(error) as raised:
        L_ENTRY_POINTS[entry](f, L)
    assert raised.type is error


def test_constant_f_has_one_identity_row():
    # c = 0: the quotient is the field, and x L^0 is its identity
    f = Poly(2, {(0, 0): Fraction(3, 2)})
    L = Poly.variable(2, 1)
    report = slp_check(f, L)
    assert [(r.i, r.required, r.achieved) for r in report.rows] == [(0, 1, 1)]
    assert [r.achieved for r in report.rows] == naive_achieved_ranks(f, L)
    assert report.verdict and all(hessian_determinants_at(f, L))


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


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2), (FamilyKind.GENERIC_DET, 3, 2), (FamilyKind.PFAFFIAN, 6, 1),
])
def test_slp_table_takes_required_from_the_symmetric_path(kind, n, s, monkeypatch):
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    symmetric = SlpTable(f, family_symmetry(spec))
    assert symmetric.required == SlpTable(f).required
    L = canonical_lefschetz(spec)
    assert slp_check(f, L, symmetric) == slp_check(f, L)
    seen = []
    real = lefschetz.hilbert_function
    monkeypatch.setattr(
        lefschetz, "hilbert_function",
        lambda g, symmetry=None: seen.append(symmetry) or real(g, symmetry),
    )
    verify_theorem(spec, samples=1, seed=0)
    args = ["slp", "--family", kind.value, "--n", str(n), "--power", str(s)]
    main(args)
    main(args + ["--weights", '{"x12": "2"}'])
    assert seen == [family_symmetry(spec)] * 2 + [None]


def _within_default_budget(spec):
    try:
        ensure_within_budget(spec.nvars, spec.socle_degree)
    except TooLargeError:
        return False
    return True


SMALL_FAMILIES = [
    (kind, n, s)
    for kind in FamilyKind
    for n in range(1, 5)
    if not (kind is FamilyKind.PFAFFIAN and n % 2)
    for s in range(1, 4)
    if _within_default_budget(FamilySpec(kind, n, s))
]


def _check_slp_bases(g, table):
    # each b_i has h_i elements, and the oracle's Cat_i rows at b_i have
    # rank h_i (all-zero columns dropped, as they leave the rank alone)
    c = g.homogeneous_degree()
    assert len(table.degrees) == (c + 1) // 2
    for i, d in enumerate(table.degrees):
        basis = [_monomial(b, c + 1, g.nvars) for b in d.basis]
        assert len(basis) == len(set(basis)) == table.required[i]
        cat = naive_catalecticant(g, i).dense()
        index = {m: r for r, m in enumerate(monomials_of_degree(g.nvars, i))}
        picked = [cat[index[b]] for b in basis]
        assert naive_rank([col for col in zip(*picked) if any(col)]) == len(basis)


@pytest.mark.parametrize("kind,n,s", SMALL_FAMILIES)
def test_slp_basis_rows_are_independent(kind, n, s):
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    _check_slp_bases(f, SlpTable(f, family_symmetry(spec)))


def test_slp_basis_of_a_weighted_f():
    # F(w*x) with unlike denominators, so the table's scale D exceeds 1
    f = make_invariant(FamilySpec(FamilyKind.SYM_DET, 3, 2))
    weighted = scale_variables(f, [Fraction(k % 3 + 1, k % 2 + 2) for k in range(6)])
    assert any(coeff.denominator > 1 for _, coeff in weighted.terms())
    _check_slp_bases(weighted, SlpTable(weighted))


def test_slp_route_shares_no_code_with_the_hessian_route(monkeypatch):
    """SlpTable and slp_check, on the symmetric path and the generic one,
    never use the Hessian route's placed catalecticants, basis, table,
    divisor walk or graded-lex ranks."""
    import lefkit.macaulay as macaulay

    def refuse(*args, **kwargs):
        raise AssertionError("the SLP route called the Hessian route")

    spec = FamilySpec(FamilyKind.SYM_DET, 3, 3)
    weighted = scale_variables(DET3_CUBED, [Fraction(1, 2), 3, 1, Fraction(2, 3), 1, 5])
    forms = [
        canonical_lefschetz(spec),
        random_linear_form(6, random.Random(3)),
        *deficient_candidates(spec),
    ]
    cases = [(DET3_CUBED, family_symmetry(spec)), (DET3_CUBED, None), (weighted, None)]
    expected = [[slp_check(g, L, SlpTable(g, sym)) for L in forms] for g, sym in cases]
    for module, name in [
        (macaulay, "_placed_catalecticant"), (lefschetz, "_placed_catalecticant"),
        (lefschetz, "default_degree_basis"),
        (lefschetz, "HessianTable"),
        (lefschetz, "_point_divisors"),
        (macaulay, "_glex_rank_of_key"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    for (g, sym), reports in zip(cases, expected):
        table = SlpTable(g, sym)
        assert [slp_check(g, L, table) for L in forms] == reports
        assert [slp_check(g, L) for L in forms] == reports
    assert [r.verdict for r in expected[0]] == [True, True, False, False]


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
    # At the small primes 7 and 2, which slp_check and mat_rank's own block
    # probe read at call time, the residue probes often fall short and
    # elimination decides.
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
                monkeypatch.setattr(exactmath, "PROBE_PRIME", prime)
                achieved = [row.achieved for row in slp_check(g, L, table).rows]
                assert achieved == expected
            passes[-1].append(achieved)
    assert passes[0] == passes[1]


def test_probe_settles_a_lefschetz_l_at_h_i(monkeypatch):
    # det^3 on 3x3 symmetric matrices has h_4 = 81 but 126 monomials of
    # degree 4.  Each matrix is ranked on its quotient basis, h_i rows,
    # and for a random L the probe reaches h_i: no degree goes to mat_rank.
    # The 1 x 1 degree i = 0 is its value's being nonzero, with no probe.
    probed = []

    def recording(rows, slots):
        rows = list(rows)
        probed.append(len(rows))
        return _rank_mod_p(rows, slots)

    def refuse(matrix):
        raise AssertionError("mat_rank was called")

    monkeypatch.setattr(lefschetz, "_rank_mod_p", recording)
    monkeypatch.setattr(lefschetz, "mat_rank", refuse)
    table = SlpTable(DET3_CUBED)
    report = slp_check(DET3_CUBED, random_linear_form(6, random.Random(5)), table)
    assert [(r.required, r.achieved) for r in report.rows] == [
        (1, 1), (6, 6), (21, 21), (56, 56), (81, 81)]
    assert [len(d.basis) for d in table.degrees] == [1, 6, 21, 56, 81]
    assert probed == [6, 21, 56, 81]


def _symmetric_point(*vectors):
    """The layout point of sym-det n = 3 whose matrix is the sum of v v^T
    over `vectors`: every entry nonzero for the vectors used here."""
    m = [[sum(v[a] * v[b] for v in vectors) for b in range(3)] for a in range(3)]
    return [m[a][b] for a in range(3) for b in range(a, 3)]


def test_probe_short_of_h_i_goes_to_mat_rank(monkeypatch):
    # A rank-2 symmetric matrix with no zero entry is not Lefschetz for
    # det^3, and its values at i = 2..4 are dense (117 of 117, 254 of 255
    # and 129 of 129 kept rows nonzero for the first), so each goes to the
    # probe.  At i = 4 the probe of the 81 x 81 matrix falls short of
    # h_4 = 81, and mat_rank gives the rank, 66.
    spec = FamilySpec(FamilyKind.SYM_DET, 3, 3)
    table = SlpTable(DET3_CUBED)
    probed, ranked = [], []

    def probing(rows, slots):
        probed.append(_rank_mod_p(rows, slots))
        return probed[-1]

    def recording(matrix):
        ranked.append(mat_rank(matrix))
        return ranked[-1]

    monkeypatch.setattr(lefschetz, "_rank_mod_p", probing)
    monkeypatch.setattr(lefschetz, "mat_rank", recording)
    for vectors in (((1, 2, 3), (1, -1, 2)), ((1, 1, 2), (2, -1, 1))):
        point = _symmetric_point(*vectors)
        assert all(point) and not families._in_open_orbit(spec, point)
        L = linear(SYM3, dict(enumerate(point)))
        achieved = [row.achieved for row in slp_check(DET3_CUBED, L, table).rows]
        assert probed[-1] < 81  # the i = 4 probe
        assert achieved[4] == ranked[-1] == 66
        assert achieved == naive_achieved_ranks(DET3_CUBED, L)


def test_verdict_stops_at_the_first_short_degree(monkeypatch):
    # L = x11 on det^2 over 3x3 symmetric matrices has ranks (0, 0, 6, 28)
    # against h = (1, 6, 21, 28): degree 0 already falls short, so
    # verdict_at ranks no later degree, while ranks_at ranks every one.
    spec = FamilySpec(FamilyKind.SYM_DET, 3, 2)
    f = make_invariant(spec)
    table = SlpTable(f, family_symmetry(spec))
    x11 = [1, 0, 0, 0, 0, 0]
    assert table.ranks_at(x11) == [0, 0, 6, 28]
    assert table.ranks_at(x11) == naive_achieved_ranks(f, Poly.variable(6, 0))

    def refuse(powers):
        raise AssertionError("a degree after the first short one was ranked")

    for d in table.degrees[1:]:
        monkeypatch.setattr(d, "rank_at", refuse)
    assert table.verdict_at(x11) is False


def test_basis_size_other_than_h_i_is_an_invariant_failure(monkeypatch):
    # Each basis b_i must have h_i elements; a `required` off by one at any
    # degree with a basis, or a basis short of a row, raises when the table
    # is built, before any L.
    required = hilbert_function(DET3_CUBED).values
    for i in range(5):
        for wrong in (required[i] - 1, required[i] + 1):
            values = required[:i] + (wrong,) + required[i + 1:]
            monkeypatch.setattr(
                lefschetz, "hilbert_function", lambda f, symmetry=None: HilbertFn(9, values)
            )
            with pytest.raises(
                InvariantError, match=f"degree-{i} quotient basis has {required[i]} "
                f"elements, h_{i} = {wrong}"
            ):
                SlpTable(DET3_CUBED)
    monkeypatch.undo()
    monkeypatch.setattr(lefschetz, "pivot_rows", lambda m: pivot_rows(m)[:-1])
    with pytest.raises(InvariantError, match="degree-0 quotient basis has 0 elements"):
        SlpTable(DET3_CUBED)
    assert main(["slp", "--family", "sym-det", "--n", "3"]) == 4
    monkeypatch.undo()
    table = SlpTable(DET3_CUBED)
    assert slp_check(DET3_CUBED, random_linear_form(6, random.Random(5)), table).verdict


def test_row_vanishing_mod_p_is_still_counted(monkeypatch):
    # L = 7 B + x33, B with no zero entry, is nonsingular, so Lefschetz for
    # det on 3x3 symmetric matrices, and all 12 kept rows at i = 1 are
    # nonzero, so the degree goes to the probe.  L is x33 mod 7, and the
    # i = 1 rows of x33, x13 and x23 (second derivatives of det, linear in
    # x11, x22 and x12) are zero mod 7 but not over the integers.  So the
    # probe's rank is 3, short of h_1 = 6, and mat_rank gives 6.  The
    # 1 x 1 degree i = 0 (det at l, 0 mod 7) is decided exactly, unprobed.
    monkeypatch.setattr(lefschetz, "PROBE_PRIME", 7)
    probed = []

    def probing(rows, slots):
        probed.append(_rank_mod_p(rows, slots))
        return probed[-1]

    monkeypatch.setattr(lefschetz, "_rank_mod_p", probing)
    b = [1, 2, 1, 1, 3, 1]  # B's entries in layout order
    L = linear(SYM3, {k: 7 * v + (k == SYM3.var_index(3, 3)) for k, v in enumerate(b)})
    table = SlpTable(DET3)
    values = table.degrees[1].values_at(table._powers([7 * v for v in b[:5]] + [8]))
    assert values[0] == 0 and all(values[1:]) and len(values) == 13
    report = slp_check(DET3, L, table)
    assert probed == [3]
    assert [row.achieved for row in report.rows] == naive_achieved_ranks(DET3, L) == [1, 6]
    assert report.verdict and orbit_test(SYM3, L)


@pytest.mark.parametrize("prime", [PROBE_PRIME, 7])
def test_gathered_rows_equal_packed_cells(monkeypatch, prime):
    # Each probe row is gathered from the per-F layout, one slot per
    # column; _Slots.pack lays out the same cells (each column with a kept
    # row, and that row's encoded value) with a zero slot elsewhere.
    monkeypatch.setattr(lefschetz, "PROBE_PRIME", prime)
    gathered = []

    def keeping(rows, slots):
        gathered.append((list(rows), slots))
        return _rank_mod_p(gathered[-1][0], slots)

    monkeypatch.setattr(lefschetz, "_rank_mod_p", keeping)
    table = SlpTable(DET3_CUBED)
    powers = table._powers(_random_point(6, random.Random(3)))
    for d in table.degrees[1:]:
        gathered.clear()
        d.rank_at(powers)
        [(rows, slots)] = gathered
        slot = slots.encode(d.values_at(powers))
        cells = [[(k, t) for k, t in enumerate(ids) if t] for ids in d.layout]
        assert cells[0]  # every row has a kept cell here
        assert rows == list(slots.pack(
            ([k for k, _ in row], [slot[t] for _, t in row]) for row in cells))


FILL_INSTANCES = [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.PFAFFIAN, 6, 1),
    (FamilyKind.GENERIC_DET, 3, 2),
    (FamilyKind.QUADRIC, 5, 2),
]


@pytest.mark.parametrize("kind,n,s", FILL_INSTANCES)
def test_fill_rule_picks_the_rank_path(kind, n, s, monkeypatch):
    # A degree with fewer than half of its kept rows nonzero at L goes
    # straight to mat_rank: the canonical L makes such degrees on every
    # family, and no probe is run on them.  A random L fills every degree,
    # which the probe settles with no mat_rank call.  The 1 x 1 degree
    # calls neither.  Both sides give the naive ranks.
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    table = SlpTable(f, family_symmetry(spec))
    calls = []
    monkeypatch.setattr(lefschetz, "_rank_mod_p",
                        lambda rows, slots: calls.append("probe") or _rank_mod_p(rows, slots))
    monkeypatch.setattr(lefschetz, "mat_rank",
                        lambda m: calls.append("mat_rank") or mat_rank(m))
    canonical = canonical_lefschetz(spec)
    random_form = random_linear_form(spec.nvars, random.Random(n * 10 + s))
    sparse_seen = 0
    for L, is_random in ((canonical, False), (random_form, True)):
        point = [int(v) for v in L.linear_coefficients()]
        powers = table._powers(point)
        achieved = []
        for d in table.degrees:
            values = d.values_at(powers)
            sparse = 2 * (len(values) - values.count(0)) < len(values) - 1
            calls.clear()
            achieved.append(d.rank_at(powers))
            if len(d.basis) == 1:
                assert calls == []
            elif sparse:
                assert calls == ["mat_rank"] and not is_random
                sparse_seen += 1
            else:
                assert calls == ["probe"]
        ranks = table.ranks_at(point)
        assert achieved == ranks[:len(achieved)]
        assert ranks == naive_achieved_ranks(f, L)
    assert sparse_seen


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


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.GENERIC_DET, 2, 2),
    (FamilyKind.PFAFFIAN, 4, 2),
    (FamilyKind.QUADRIC, 4, 2),
])
def test_one_placed_build_gives_every_degree(kind, n, s):
    """One walk over a range of degrees places each degree's catalecticant
    with its nonzero columns only, numbered by descending key:
    put back at their graded-lex positions they give the public
    catalecticant (and the dense oracle), in graded-lex order, with the
    same pivot rows.  Row keys decode to the row labels, and
    HessianTable's basis keys to default_degree_basis."""
    f = make_invariant(FamilySpec(kind, n, s))
    weights = [Fraction(k % 3 + 1, k % 2 + 2) for k in range(f.nvars)]
    weighted = scale_variables(f, weights)
    assert any(coeff.denominator > 1 for _, coeff in weighted.terms())  # D > 1
    for g in (f, weighted):
        c = g.homogeneous_degree()

        def check(i, matrix, key_at, order):
            cat = catalecticant(g, i)
            assert cat.matrix == naive_catalecticant(g, i)
            at = [
                cat.col_monomials.index(_monomial(key, c + 1, g.nvars))
                for key in order
            ]
            assert at == sorted(set(at))  # distinct, in graded-lex order
            assert set(at) == {j for (_, j), _ in cat.matrix.items()}
            assert (matrix.rows, matrix.cols) == (cat.matrix.rows, len(order))
            assert {(r, at[j]): v for (r, j), v in matrix.items()} == dict(
                cat.matrix.items()
            )
            assert pivot_rows(matrix) == pivot_rows(cat.matrix)
            assert {
                r: _monomial(key, c + 1, g.nvars) for r, key in key_at.items()
            } == {r: cat.row_monomials[r] for (r, _), _ in cat.matrix.items()}

        table = HessianTable(g)
        assert len(table.degrees) == c // 2 + 1
        placed = zip(_placed_catalecticant(g, c, 0, c // 2), table.degrees)
        for i, ((matrix, key_at, order), basis) in enumerate(placed):
            check(i, matrix, key_at, order)
            assert [
                _monomial(b, c + 1, g.nvars) for b in basis
            ] == default_degree_basis(g, i)
        # a range that starts above degree 0 and runs to c
        for i, placed in enumerate(_placed_catalecticant(g, c, 1, c), 1):
            check(i, *placed)


def test_point_divisor_walk_matches_brute_force():
    """The Hessian route's keyed walk against every exponent tuple d <= e:
    each nonvanishing divisor of every degree once, with value
    prod perm(e_k, d_k) * n_k^(e_k - d_k), and no divisor whose value is
    zero.  Keys are the ones HessianTable uses, x_0 the most significant
    digit."""
    rng = random.Random(18)
    for _ in range(300):
        nvars = rng.randint(1, 5)
        expo = tuple(rng.choice([0, 0, 1, 2, 3, 5]) for _ in range(nvars))
        c = sum(expo) + rng.randint(0, 2)  # the key base c + 1 exceeds every exponent
        point = [rng.choice([0, 0, 1, -1, 2, -3, 7, -12]) for _ in range(nvars)]
        steps = [(c + 1) ** (nvars - 1 - k) for k in range(nvars)]
        term = tuple((e, steps[k], k) for k, e in enumerate(expo) if e)
        walked = lefschetz._point_divisors(term, lefschetz._point_factors(point, c))
        decoded = {_monomial(key, c + 1, nvars): v for key, v in walked}
        assert len(decoded) == len(walked)
        expected = {}
        for d in itertools.product(*(range(e + 1) for e in expo)):
            value = prod(perm(e, k) * x ** (e - k) for e, k, x in zip(expo, d, point))
            if value:
                expected[d] = value
        assert decoded == expected


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


def _some_term_survives(entry, point):
    # whether a term of the polynomial `entry` is nonzero at `point`
    return any(all(x for x, k in zip(point, expo) if k) for expo, _ in entry.terms())


@pytest.mark.parametrize("kind,n,s", [
    (FamilyKind.SYM_DET, 3, 2),
    (FamilyKind.GENERIC_DET, 2, 2),
    (FamilyKind.PFAFFIAN, 4, 2),
    (FamilyKind.QUADRIC, 4, 2),
])
def test_one_hessian_table_over_many_points(kind, n, s):
    """One HessianTable per F, plain and weighted (D > 1), reused over
    seeded integer and rational points (zero coordinates included), the
    all-ones point, the reciprocal weights, the canonical L and every
    deficient candidate: each L's map of divisor values gives the
    determinants of the oracle's Hessians evaluated at the point.  An entry
    whose terms are nonzero at the point but sum to zero is a cell whose
    walked contributions cancel; the determinant families reach some (the
    quadric's entries here are single terms or sums of squares)."""
    spec = FamilySpec(kind, n, s)
    f = make_invariant(spec)
    nvars = f.nvars
    rng = random.Random(27)
    weights = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(nvars)]
    points = [[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(6)]
    points += [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)]
               for _ in range(4)]
    points += [[1] * nvars, [1 / w for w in weights]]
    assert any(0 in p for p in points)
    forms = [linear(spec, dict(enumerate(p))) for p in points if any(p)]
    forms += [canonical_lefschetz(spec), *deficient_candidates(spec)]
    cancelled = 0
    for g in (f, scale_variables(f, weights)):
        c = g.homogeneous_degree()
        table = HessianTable(g)
        naive = [
            naive_higher_hessian(g, default_degree_basis(g, i))
            for i in range(c // 2 + 1)
        ]
        for L in forms:
            point = L.linear_coefficients()
            expected = []
            for matrix in naive:
                rows = [[naive_evaluate(e, point) for e in row] for row in matrix]
                cancelled += sum(
                    v == 0 and _some_term_survives(e, point)
                    for row, values in zip(matrix, rows)
                    for e, v in zip(row, values)
                )
                expected.append(_oracle_det(rows))
            assert hessian_determinants_at(g, L, table) == expected
    assert cancelled > 0 or kind is FamilyKind.QUADRIC


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
    """HessianTable and default_degree_basis never build the labelled
    catalecticant, and with its HessianTable supplied
    hessian_determinants_at uses neither macaulay's entry enumerator and
    divisor walk, nor SlpTable, nor a rank, nor the placed catalecticants,
    graded-lex ranks, basis and pivot rows again."""
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
    for g in (f, weighted):
        for i in range(len(tables[id(g)].degrees)):
            default_degree_basis(g, i)
    for module, name in [
        (macaulay, "_integer_terms"), (lefschetz, "_integer_terms"),
        (macaulay, "_divisors"), (lefschetz, "_divisors"),
        (lefschetz, "SlpTable"),
        (exactmath, "mat_rank"), (lefschetz, "mat_rank"),
        (exactmath, "pivot_rows"), (lefschetz, "pivot_rows"),
        (lefschetz, "default_degree_basis"),
        (macaulay, "_placed_catalecticant"), (lefschetz, "_placed_catalecticant"),
        (macaulay, "_glex_rank_of_key"),
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


ORACLE_SPECS = [
    FamilySpec(FamilyKind.SYM_DET, 2, 2),
    FamilySpec(FamilyKind.SYM_DET, 3, 2),
    FamilySpec(FamilyKind.GENERIC_DET, 2, 2),
    FamilySpec(FamilyKind.GENERIC_DET, 3, 1),
    FamilySpec(FamilyKind.PFAFFIAN, 4, 1),
    FamilySpec(FamilyKind.PFAFFIAN, 6, 1),
    FamilySpec(FamilyKind.QUADRIC, 4, 2),  # no deficient candidates
]


def _summary_from_public_functions(spec, samples, rng):
    """verify_theorem's summary assembled from the public per-L functions."""
    f = make_invariant(spec)
    table = SlpTable(f, family_symmetry(spec))
    forms = [(L, True) for L in deficient_candidates(spec)]
    forms.append((canonical_lefschetz(spec), True))
    forms += [(random_linear_form(spec.nvars, rng), False) for _ in range(samples)]
    return TheoremSummary(samples=tuple(
        TheoremSample(
            coeffs=L.linear_coefficients(),
            forced=forced,
            slp_verdict=slp_check(f, L, table).verdict,
            orbit_verdict=orbit_test(spec, L),
        )
        for L, forced in forms
    ))


@pytest.mark.parametrize("seed", [7, 2024])
@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=str)
def test_verify_is_the_public_functions_summary(spec, seed):
    summary = verify_theorem(spec, samples=12, seed=seed)
    assert summary == _summary_from_public_functions(spec, 12, random.Random(seed))
    assert all(isinstance(a, Fraction) for smp in summary.samples for a in smp.coeffs)


class _ZeroFirstRandom(random.Random):
    """A random.Random whose first `zeros` randint calls return 0 without
    drawing: with zeros = nvars the first vector is all zero."""

    zeros = 0

    def randint(self, a, b):
        if self.zeros:
            self.zeros -= 1
            return 0
        return super().randint(a, b)


@pytest.mark.parametrize("spec", [SYM3, FamilySpec(FamilyKind.QUADRIC, 4, 2)], ids=str)
def test_verify_redraws_an_all_zero_vector(spec, monkeypatch):
    def stub(seed):
        rng = _ZeroFirstRandom(seed)
        rng.zeros = spec.nvars
        return rng

    expected = _summary_from_public_functions(spec, 4, stub(5))
    monkeypatch.setattr(lefschetz, "random", SimpleNamespace(Random=stub))
    summary = verify_theorem(spec, samples=4, seed=5)
    assert summary == expected
    # the redraw is the unstubbed generator's first vector
    first = next(smp for smp in summary.samples if not smp.forced)
    assert first.coeffs == random_linear_form(spec.nvars, random.Random(5)).linear_coefficients()


@pytest.mark.parametrize("spec", [
    FamilySpec(FamilyKind.SYM_DET, 3, 2), FamilySpec(FamilyKind.PFAFFIAN, 6, 1),
], ids=str)
def test_verify_runs_no_public_per_form_function(spec, monkeypatch):
    expected = verify_theorem(spec, samples=10, seed=11)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_theorem built a Poly per sample")

    for module, name in [
        (lefschetz, "slp_check"),
        (lefschetz, "random_linear_form"),
        (lefschetz, "orbit_test"),  # not imported there: set in case it is
        (families, "orbit_test"),
    ]:
        monkeypatch.setattr(module, name, refuse, raising=False)
    assert verify_theorem(spec, samples=10, seed=11) == expected


def test_slp_check_skips_the_f_checks_for_its_own_table(monkeypatch):
    table = SlpTable(DET3)
    L = random_linear_form(6, random.Random(9))
    expected = slp_check(DET3, L, table)
    copy = Poly(6, dict(DET3.terms()))
    assert copy == DET3 and copy is not DET3

    def refuse(f):
        raise AssertionError("F was scanned again")

    monkeypatch.setattr(lefschetz, "_require_homogeneous", refuse)
    assert slp_check(DET3, L, table) == expected
    with pytest.raises(AssertionError):
        slp_check(copy, L, table)  # an equal F is checked and compared
    monkeypatch.undo()
    assert slp_check(copy, L, table) == expected
    with pytest.raises(ValueError):
        slp_check(DET2, Poly.variable(3, 0), table)


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
