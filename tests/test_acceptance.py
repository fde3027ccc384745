"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact (zero) unless stated otherwise, and the
timed criteria assert their stated budgets.
"""
import random
import time
from fractions import Fraction as Q

from plectic import catalog
from plectic.classify import (
    COMPLEX,
    FLAT,
    NONFLAT,
    PRODUCT,
    TANGENT,
    classify6,
    flatness_report,
    hitchin_endomorphism,
    nondegenerate,
    split_product,
    standard_volume,
)
from plectic.exterior import (
    chart,
    constant_linear_pullback,
    contraction_solve,
    ext_d,
    form,
    function_form,
    multivec,
    wedge,
)
from plectic.hdw import free_field_section, hamilton_volterra_residual, multiphase_forms
from plectic.linalg import det
from plectic.linfty import (
    jacobiator_identity_residual,
    l2,
    linfty_relation_residual,
    make_observable,
)
from plectic.liesym import (
    STRICT,
    CEOperators,
    abelian,
    canonical_three_form,
    comoment_from_potential,
    comoment_verify,
    conserved_classify,
    killing_form,
    left_invariant_surrogate,
    obstruction_cochain,
    sl2,
    so3,
    translation_action,
)
from plectic.mover import jacobian_determinant, move_points, realify_and_check
from plectic.scalar import GaussianRational, RationalExpr, parse_expression
from util import HamiltonianSampler

C3 = chart(3)
C6 = chart(6)
HALF = catalog.half_space6()
W3 = form(C3, 3, {(1, 2, 3): 1})
W6 = form(C6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})


def _report(num, name, ok=True):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_hitchin_regression():
    start = time.monotonic()
    w = catalog.omega_f("x2")
    J = hitchin_endomorphism(w, standard_volume(HALF))
    f = parse_expression("x2", 6)
    two_f = RationalExpr.const(6, 2) * f
    expected = [
        [0, -two_f, 0, 0, 0, 0],
        [-2, 0, 0, 0, 0, 0],
        [0, 0, 0, -two_f, 0, 0],
        [0, 0, -2, 0, 0, 0],
        [0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, two_f, 0],
    ]
    for i in range(6):
        for j in range(6):
            assert J.matrix[i][j] == expected[i][j], (i, j)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "hitchin endomorphism regression")


def test_criterion_02_classification_trichotomy():
    start = time.monotonic()
    origin = [0] * 6
    normal = [
        (catalog.product6(), PRODUCT),
        (catalog.complex6(), COMPLEX),
        (catalog.tangent6(), TANGENT),
    ]
    for w, expected in normal:
        assert classify6(w, origin).linear_type == expected
    rng = random.Random(0xACCE)
    seen = set()
    trials = 0
    while trials < 1000:
        M = [[Q(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
        if not det([row[:] for row in M]):
            continue
        w, expected = normal[trials % 3]
        moved = constant_linear_pullback(w, M)
        verdict = classify6(moved, origin).linear_type
        assert verdict == expected, (trials, verdict)
        seen.add(verdict)
        trials += 1
    assert seen == {PRODUCT, COMPLEX, TANGENT}
    assert len(seen) == 3  # Sigma_6^3 = 3 non-degenerate types
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.3f}s"
    _report(2, f"trichotomy on 1000 GL-conjugates ({elapsed:.1f}s)")


def test_criterion_03_nonflat_witness():
    start = time.monotonic()
    w = catalog.omega_f("x2")
    w1, w2 = split_product(w)
    expected_dw1 = form(HALF, 4, {
        (1, 2, 4, 5): parse_expression("1/4*x2^(-1/2)", 6),
        (1, 2, 3, 6): parse_expression("1/4*x2^(-3/2)", 6),
    })
    assert ext_d(w1) == expected_dw1
    rep = flatness_report(w)
    assert rep.flat == NONFLAT
    omega_vol = wedge(w1, w2)
    assert omega_vol == form(HALF, 6, {
        tuple(range(1, 7)): parse_expression("2*x2^(1/2)", 6)
    })
    xi = contraction_solve(omega_vol, ext_d(w1), 2)
    assert xi == multivec(HALF, 2, {
        (3, 6): parse_expression("1/8*x2^(-1)", 6),
        (4, 5): parse_expression("1/8*x2^(-2)", 6),
    })
    from plectic.exterior import interior

    twice = interior(xi, interior(xi, omega_vol))
    assert twice == form(HALF, 2, {(1, 2): parse_expression("1/16*x2^(-5/2)", 6)})
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    _report(3, "non-flat witness and invariant bivector")


def test_criterion_04_flat_nonflat_coexistence():
    flat_rep = flatness_report(catalog.omega_f(1))
    nonflat_rep = flatness_report(catalog.omega_f("x2"))
    assert flat_rep.linear_type == PRODUCT and flat_rep.flat == FLAT
    assert nonflat_rep.linear_type == PRODUCT and nonflat_rep.flat == NONFLAT
    _report(4, "flat / non-flat coexistence across charts")


def test_criterion_05_nondegeneracy_suite():
    assert nondegenerate(catalog.g2_form(), [0] * 7)
    assert nondegenerate(catalog.s6_pole_form(), [0] * 6)
    rep = nondegenerate(form(C6, 3, {(1, 2, 3): 1}), [0] * 6)
    assert not rep
    assert set(tuple(k.coeffs) for k in rep.kernel) == {((4,),), ((5,),), ((6,),)}
    for j in range(1, 5):
        assert nondegenerate(catalog.symplectic_power(4, j))
    _report(5, "non-degeneracy suite (G2, S6 pole, kernel, powers)")


def test_criterion_06_linfty_relations():
    start = time.monotonic()
    rng = random.Random(0x1F1F)
    s3 = HamiltonianSampler(W3)
    s6 = HamiltonianSampler(W6)
    count = 0
    for _ in range(50):  # triples on R^3: relation k=2 and Jacobiator
        a, b, c = (make_observable(W3, s3.sample(rng)) for _ in range(3))
        assert linfty_relation_residual(W3, 2, [a, b, c]).is_zero
        assert jacobiator_identity_residual(W3, a, b, c).is_zero
        count += 1
    for _ in range(25):  # triples on R^6: relation k=2
        args = [make_observable(W6, s6.sample(rng)) for _ in range(3)]
        assert linfty_relation_residual(W6, 2, args).is_zero
        count += 1
    for _ in range(25):  # quadruples on R^6: relation k=3
        args = [make_observable(W6, s6.sample(rng)) for _ in range(4)]
        assert linfty_relation_residual(W6, 3, args).is_zero
        count += 1
    assert count == 100
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"
    _report(6, f"100 seeded structural relations ({elapsed:.1f}s)")


def test_criterion_07_volume_l2_formula():
    from itertools import combinations

    for n, seed in ((3, 0xB0B), (4, 0xB0C)):
        rng = random.Random(seed)
        ch = chart(n)
        w = form(ch, n, {tuple(range(1, n + 1)): 1})
        pairs = list(combinations(range(1, n + 1), 2))

        def rand_linear():
            terms = " + ".join(f"{rng.randint(-3, 3)}*x{j}" for j in range(1, n + 1))
            return parse_expression(terms, n)

        f = {p: rand_linear() for p in pairs}
        ft = {p: rand_linear() for p in pairs}

        def alpha_from(fs):
            from plectic.exterior import interior

            total = form(ch, n - 2, {})
            for (i, j), cf in fs.items():
                total = total + interior(multivec(ch, 2, {(i, j): 1}), w).scale(cf)
            return total

        def field(fs, j):
            acc = RationalExpr.const(n, 0)
            for k in range(1, n + 1):
                if k == j:
                    continue
                key = (k, j) if k < j else (j, k)
                cf = fs.get(key, RationalExpr.const(n, 0))
                if k > j:
                    cf = -cf
                acc = acc + cf.partial(k)
            return acc

        oa = make_observable(w, alpha_from(f))
        ob = make_observable(w, alpha_from(ft))
        got = l2(w, oa, ob)
        from plectic.exterior import interior

        formula = form(ch, n - 2, {})
        for (i, j) in pairs:
            coeff = field(f, i) * field(ft, j) - field(f, j) * field(ft, i)
            formula = formula + interior(multivec(ch, 2, {(i, j): 1}), w).scale(coeff)
        assert got == formula, f"dimension {n}"
    _report(7, "volume l2 double-sum formula (R^3 and R^4)")


def test_criterion_08_lie_algebra_suite():
    K3 = killing_form(so3())
    assert all(K3.matrix[i][j] == (-2 if i == j else 0)
               for i in range(3) for j in range(3))
    assert K3.is_semisimple
    w_e = canonical_three_form(so3())
    assert nondegenerate(w_e)
    ce = CEOperators(so3())
    assert ce.coboundary_test({(1, 2, 3): Q(-2)}, 3) is None
    act = left_invariant_surrogate(so3())
    assert obstruction_cochain(act, w_e, 3).vanishes is False
    K2 = killing_form(sl2())
    assert K2.matrix[0][0] == 8 and K2.matrix[1][2] == 4
    Kab = killing_form(abelian(2))
    assert not Kab.is_semisimple
    assert all(not v for row in Kab.matrix for v in row)
    assert canonical_three_form(abelian(2)).is_zero
    _report(8, "Lie-algebra suite (so3, sl2, abelian)")


def test_criterion_09_comoment_roundtrip():
    c2 = chart(2)
    w2 = form(c2, 2, {(1, 2): 1})
    act2 = translation_action(abelian(1), c2, [2])
    cm2 = comoment_from_potential(act2, form(c2, 1, {(2,): "x1"}), w2)
    assert comoment_verify(act2, w2, cm2).all_zero
    act3 = translation_action(abelian(2), C3, [2, 3])
    cm3 = comoment_from_potential(act3, form(C3, 2, {(2, 3): "x1"}), W3)
    assert comoment_verify(act3, W3, cm3).all_zero
    rng = random.Random(0x909)
    coeff = rng.randint(1, 5)
    maps = [dict(cm2.maps[0])]
    maps[0][(1,)] = maps[0][(1,)] + function_form(c2, f"{coeff}*x2")
    perturbed = type(cm2)(cm2.algebra, cm2.n, tuple(maps))
    rep = comoment_verify(act2, w2, perturbed)
    assert not rep.all_zero
    assert rep.lifting_residuals[1] == form(c2, 1, {(2,): coeff})
    _report(9, "comoment round-trip and perturbation detection")


def test_criterion_10_conserved_brackets():
    rng = random.Random(0xC0)
    H = make_observable(W3, form(C3, 1, {(1,): "x3"}))  # X_H = -e2

    def locally_conserved():
        coeffs = {}
        for i in (1, 2, 3):
            base = parse_expression(
                f"{rng.randint(-3, 3)} + {rng.randint(-2, 2)}*x1*x3", 3
            )
            slope = RationalExpr.const(3, rng.randint(-3, 3))
            coeffs[(i,)] = base + slope * RationalExpr.variable(3, 2)
        return form(C3, 1, coeffs)

    for _ in range(50):
        a = locally_conserved()
        b = locally_conserved()
        bracket = l2(W3, make_observable(W3, a), make_observable(W3, b))
        assert conserved_classify(W3, H, bracket) == STRICT
    _report(10, "l2 of locally conserved pairs is strictly conserved (50 seeded)")


def test_criterion_11_mover_end_to_end():
    start = time.monotonic()
    rng = random.Random(0x30E)

    def rand_gauss():
        return GaussianRational(Q(rng.randint(-4, 4), rng.choice([1, 2])),
                                Q(rng.randint(-4, 4), rng.choice([1, 2])))

    def rand_points(k, n):
        pts = set()
        while len(pts) < k:
            pts.add(tuple(rand_gauss() for _ in range(n)))
        return list(pts)

    for trial in range(20):
        n = 2 if trial % 2 == 0 else 3
        k = rng.randint(1, 5)
        src = rand_points(k, n)
        dst = rand_points(k, n)
        auto = move_points(src, dst, n)
        for s, d in zip(src, dst):
            assert auto.apply(s) == d
        assert jacobian_determinant(auto) == 1
        _realified, preserved = realify_and_check(auto)
        assert preserved
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.3f}s"
    _report(11, f"20 seeded end-to-end moves ({elapsed:.1f}s)")


def test_criterion_12_multiphase_identities():
    for n in (1, 2, 3):
        for fiber in (1, 2, 3):
            model = multiphase_forms(n, fiber)
            assert model.omega == -ext_d(model.theta)
            assert ext_d(model.omega).is_zero
            assert nondegenerate(model.omega)
            slopes = [[Q((a + mu) % 3 - 1) for mu in range(n)]
                      for a in range(fiber)]
            ham, section = free_field_section(model, slopes)
            res = hamilton_volterra_residual(model, ham, section)
            assert all(r.is_zero for r in res)
            # perturb the first fiber component
            comps = list(section.components)
            base = chart(n)
            comps[n] = comps[n] + RationalExpr.variable(n, 1) * RationalExpr.variable(n, 1)
            from plectic.exterior import SmoothMap

            bad = SmoothMap(base, model.restricted_chart, tuple(comps))
            res_bad = hamilton_volterra_residual(model, ham, bad)
            assert any(not r.is_zero for r in res_bad)
    _report(12, "multiphase identities and Hamilton-Volterra residuals")
