"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
comparisons are exact; there are no tolerances anywhere.
"""

import random
from itertools import product

from lefkit.families import (
    FamilyKind,
    FamilySpec,
    canonical_lefschetz,
    deficient_candidates,
    generic_matrix,
    kind_from_name,
    make_invariant,
    pfaffian_poly,
    predicted_hilbert,
)
from lefkit.lefschetz import (
    HessianTable,
    SlpTable,
    hessian_determinants_at,
    random_linear_form,
    slp_check,
    verify_theorem,
)
from lefkit.macaulay import catalecticant, hilbert_function
from lefkit.polyring import Poly, poly_mul, poly_pow
from lefkit.exactmath import mat_rank

from _oracles import naive_contract, narayana, perm_det_poly, q_mu, weyl_sum_hilbert

SEED = 7

# criterion-3 grid: family, n, s
CONVERSE_GRID = [
    ("sym-det", 1, 1), ("sym-det", 1, 2),
    ("sym-det", 2, 1), ("sym-det", 2, 2), ("sym-det", 3, 1), ("sym-det", 3, 2),
    ("generic-det", 1, 1), ("generic-det", 1, 2),
    ("generic-det", 2, 1), ("generic-det", 2, 2),
    ("pfaffian", 4, 1), ("pfaffian", 4, 2), ("pfaffian", 6, 1),
    ("quadric", 3, 1), ("quadric", 3, 2),
    ("quadric", 4, 1), ("quadric", 4, 2),
    ("quadric", 5, 1), ("quadric", 5, 2),
]

_F_CACHE = {}


def _spec(family, n, s):
    return FamilySpec(kind_from_name(family), n, s)


def _invariant_and_table(family, n, s):
    key = (family, n, s)
    if key not in _F_CACHE:
        f = make_invariant(_spec(family, n, s))
        _F_CACHE[key] = (f, SlpTable(f))
    return _F_CACHE[key]


def _criterion(number, description, ok):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _seeded_forms(spec, count, seed=SEED):
    rng = random.Random(seed)
    return [random_linear_form(spec.nvars, rng) for _ in range(count)]


def test_criterion_1_narayana_hilbert():
    expected = {2: (1, 3, 1), 3: (1, 6, 6, 1), 4: (1, 10, 20, 10, 1)}
    ok = True
    for n in (2, 3, 4):
        f, _ = _invariant_and_table("sym-det", n, 1)
        computed = hilbert_function(f).values
        narayana_values = tuple(narayana(n + 1, k) for k in range(1, n + 2))
        ok = ok and computed == narayana_values == expected[n]
    _criterion(1, "Narayana Hilbert functions for sym-det n=2,3,4", ok)


def test_criterion_2_slp_of_trace():
    ok = True
    for n, s in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        spec = _spec("sym-det", n, s)
        f, table = _invariant_and_table("sym-det", n, s)
        report = slp_check(f, canonical_lefschetz(spec), table)
        ok = ok and report.verdict
    _criterion(2, "trace element is Lefschetz for sym-det powers", ok)


def test_criterion_3_open_orbit_converse():
    total_mismatches = 0
    for family, n, s in CONVERSE_GRID:
        summary = verify_theorem(_spec(family, n, s), samples=50, seed=SEED)
        total_mismatches += summary.mismatches
    _criterion(
        3,
        "slp verdict == open-orbit membership on the seeded grid "
        f"({len(CONVERSE_GRID)} instances x 50 samples + forced candidates)",
        total_mismatches == 0,
    )


def test_criterion_4_verdict_independent_of_power():
    pairs = [
        ("sym-det", 1), ("sym-det", 2), ("sym-det", 3),
        ("generic-det", 1), ("generic-det", 2), ("pfaffian", 4),
        ("quadric", 3), ("quadric", 4), ("quadric", 5),
    ]
    ok = True
    for family, n in pairs:
        f1, t1 = _invariant_and_table(family, n, 1)
        f2, t2 = _invariant_and_table(family, n, 2)
        for L in _seeded_forms(_spec(family, n, 1), 20):
            v1 = slp_check(f1, L, t1).verdict
            v2 = slp_check(f2, L, t2).verdict
            ok = ok and v1 == v2
    _criterion(4, "Lefschetz verdict agrees between s=1 and s=2", ok)


def test_criterion_5_hessian_oracle_equivalence():
    cells = [(f, n, s) for (f, n, s) in CONVERSE_GRID
             if (f == "sym-det" and n <= 3) or (f == "quadric" and n <= 4)]
    ok = True
    for family, n, s in cells:
        spec = _spec(family, n, s)
        f, table = _invariant_and_table(family, n, s)
        hessians = HessianTable(f)
        samples = (
            deficient_candidates(spec)
            + [canonical_lefschetz(spec)]
            + _seeded_forms(spec, 50)
        )
        for L in samples:
            slp = slp_check(f, L, table).verdict
            hess = all(hessian_determinants_at(f, L, hessians))
            ok = ok and slp == hess
    _criterion(5, "higher-Hessian criterion matches slp_check on all samples", ok)


def test_criterion_6_representation_prediction():
    ok = True
    for family, n, s in [
        ("sym-det", 1, 3), ("sym-det", 2, 1), ("sym-det", 2, 2),
        ("sym-det", 2, 3), ("sym-det", 3, 1), ("sym-det", 3, 2),
        ("generic-det", 2, 2), ("generic-det", 3, 1),
        ("pfaffian", 4, 2), ("pfaffian", 6, 1),
        ("quadric", 2, 3), ("quadric", 4, 2), ("quadric", 5, 2),
    ]:
        f, _ = _invariant_and_table(family, n, s)
        predicted = predicted_hilbert(_spec(family, n, s)).values
        ok = ok and predicted == hilbert_function(f).values
        if family == "sym-det":
            ok = ok and predicted == weyl_sum_hilbert(n, s).values
    _criterion(
        6,
        "Jordan-algebra prediction equals catalecticant ranks on all four "
        "families, and the Weyl-dimension sum on sym-det",
        ok,
    )


def test_criterion_7_q_mu_cutoff():
    ok = True
    for d in (1, 2, 3, 4):
        for r in range(1, 5):
            for ks in product(range(5), repeat=r):
                for s in range(1, 5):
                    if (q_mu(ks, s, d) == 0) != (sum(ks) > s):
                        ok = False
    _criterion(7, "q_mu vanishes exactly when k_1+...+k_r > s (exhaustive)", ok)


def test_criterion_8_annihilator_structure():
    from lefkit.macaulay import annihilator_basis

    ok = True
    for n, s in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        spec = _spec("sym-det", n, s)
        f, _ = _invariant_and_table("sym-det", n, s)
        corner = Poly.variable(spec.nvars, spec.var_index(n, n))
        ok = ok and naive_contract(poly_pow(corner, s + 1), f).is_zero()
        ok = ok and not naive_contract(poly_pow(corner, s), f).is_zero()
        for i in range(f.homogeneous_degree() + 1):
            for p in annihilator_basis(f, i):
                ok = ok and naive_contract(p, f).is_zero()
    _criterion(8, "corner-variable powers and annihilator bases behave", ok)


def test_criterion_9_structural_invariants():
    ok = True
    # Gorenstein symmetry and transpose-rank duality across the grid
    for family, n, s in CONVERSE_GRID:
        f, _ = _invariant_and_table(family, n, s)
        fn = hilbert_function(f)
        ok = ok and fn.is_symmetric() and fn.values[-1] == 1
        c = fn.socle_degree
        for i in range(c // 2 + 1):
            ok = ok and (
                mat_rank(catalecticant(f, i).matrix)
                == mat_rank(catalecticant(f, c - i).matrix)
            )
    # Pf^2 = det for n = 2, 4, 6
    for n in (2, 4, 6):
        spec = FamilySpec(FamilyKind.PFAFFIAN, n)
        pf = pfaffian_poly(n)
        ok = ok and poly_mul(pf, pf) == perm_det_poly(generic_matrix(spec), spec.nvars)
    # contraction composition law on 100 random small triples
    rng = random.Random(SEED)

    def small_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            expo = tuple(rng.randint(0, 2) for _ in range(3))
            coeff = rng.randint(-3, 3)
            if coeff:
                terms[expo] = terms.get(expo, 0) + coeff
        return Poly(3, terms)

    for _ in range(100):
        p, q, f = small_poly(), small_poly(), small_poly()
        ok = ok and naive_contract(poly_mul(p, q), f) == naive_contract(p, naive_contract(q, f))
    _criterion(9, "Gorenstein symmetry, duality, Pf^2=det, composition law", ok)
