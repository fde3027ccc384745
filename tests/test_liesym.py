import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from plectic.classify import nondegenerate
from plectic.errors import (
    DegreeError,
    HomomorphismViolation,
    JacobiViolation,
    NotInvariantPotential,
    NotSymmetryAction,
)
from plectic.exterior import chart, coordinate_vector, ext_d, form
from plectic.linfty import l2, make_observable
from plectic.liesym import (
    CONSERVED,
    LOCALLY,
    NOT_CONSERVED,
    STRICT,
    CEOperators,
    LieAction,
    LieAlgebraData,
    canonical_three_form,
    comoment_from_potential,
    comoment_verify,
    conserved_classify,
    killing_form,
    obstruction_cochain,
)
from plectic.scalar import RationalExpr, parse_expression
from ce_reference import reference_bracket, reference_check_jacobi, reference_co_differential
from util import (
    abelian,
    function_form,
    invariant_observables,
    left_invariant_surrogate,
    multivec,
    sl2,
    so3,
    translation_action,
)

C2 = chart(2)
C3 = chart(3)
W2 = form(C2, 2, {(1, 2): 1})
W3 = form(C3, 3, {(1, 2, 3): 1})


# -- algebra data ---------------------------------------------------------------


def test_jacobi_violation_detected():
    c = [[[0, 0, 0] for _ in range(3)] for _ in range(3)]
    # [e1,e2] = e3, [e1,e3] = e2, [e2,e3] = e2: fails Jacobi
    c[0][1] = [0, 0, 1]
    c[1][0] = [0, 0, -1]
    c[0][2] = [0, 1, 0]
    c[2][0] = [0, -1, 0]
    c[1][2] = [0, 1, 0]
    c[2][1] = [0, -1, 0]
    with pytest.raises(JacobiViolation):
        LieAlgebraData(3, tuple(tuple(tuple(v) for v in row) for row in c))


def _verdict(build):
    try:
        build()
    except JacobiViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("seed", range(3))
def test_jacobi_check_matches_the_triple_loop_reference(seed):
    rng = random.Random(3100 + seed)
    verdicts = set()
    for _ in range(40):
        d = rng.randint(2, 4)
        c = [[[Q(0)] * d for _ in range(d)] for _ in range(d)]
        for i, j in combinations(range(d), 2):
            if rng.random() < 0.5:
                c[i][j] = [Q(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(d)]
                c[j][i] = [-v for v in c[i][j]]
        want = _verdict(lambda: reference_check_jacobi(c, d))
        got = _verdict(lambda: LieAlgebraData(d, tuple(tuple(map(tuple, row)) for row in c)))
        assert got == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize("g", [so3(), sl2(), abelian(3)])
def test_co_differential_matches_the_signed_loop_reference(g):
    ce = CEOperators(g)
    rng = random.Random(3200 + g.dim)
    for k in range(g.dim + 1):
        for _ in range(5):
            cochain = {T: Q(rng.randint(-3, 3), rng.randint(1, 3))
                       for T in combinations(range(1, g.dim + 1), k) if rng.random() < 0.7}
            image = ce.co_differential(cochain, k)
            assert image == reference_co_differential(g, cochain, k)
            assert ce.co_differential(ce.coboundary_test(image, k + 1), k) == image


def test_so3_killing():
    K = killing_form(so3())
    for i in range(3):
        for j in range(3):
            assert K.matrix[i][j] == (-2 if i == j else 0)
    assert K.is_semisimple


def test_sl2_killing():
    K = killing_form(sl2())
    assert K.matrix[0][0] == 8
    assert K.matrix[1][2] == 4 and K.matrix[2][1] == 4
    assert K.matrix[0][1] == 0 and K.matrix[0][2] == 0
    assert K.matrix[1][1] == 0 and K.matrix[2][2] == 0
    assert K.is_semisimple


def test_abelian_killing():
    K = killing_form(abelian(2))
    assert all(not v for row in K.matrix for v in row)
    assert not K.is_semisimple


def test_canonical_three_form():
    w = canonical_three_form(so3())
    assert w == form(C3, 3, {(1, 2, 3): -2})
    assert nondegenerate(w)
    assert canonical_three_form(abelian(2)).is_zero
    wsl = canonical_three_form(sl2())
    assert not wsl.is_zero and nondegenerate(wsl)


# -- Chevalley-Eilenberg operators ------------------------------------------------


def test_boundary_example():
    ce = CEOperators(so3())
    assert ce.boundary({(1, 2): Q(1)}, 2) == {(3,): Q(1)}


def affine2():
    """Nonabelian 2-dim algebra [e1, e2] = e1."""
    c = [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]
    return LieAlgebraData(2, tuple(tuple(tuple(v) for v in row) for row in c))


def heisenberg():
    """Three-dimensional Heisenberg algebra [e1, e2] = e3."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    return LieAlgebraData(3, c)


@pytest.mark.parametrize("g", [so3(), sl2(), abelian(3), affine2()])
def test_boundary_squares_to_zero(g):
    ce = CEOperators(g)
    for k in range(2, g.dim + 1):
        for T in combinations(range(1, g.dim + 1), k):
            once = ce.boundary({T: Q(1)}, k)
            if k >= 2 and once:
                twice = ce.boundary(once, k - 1)
                assert not any(twice.values())


@pytest.mark.parametrize("g", [so3(), sl2(), abelian(3), affine2(), heisenberg()])
def test_bracket_is_the_boundary_of_the_wedge(g):
    """``bracket`` is delta(u ^ v); the dense sum over the structure constants
    that it replaced agrees on seeded vectors, and so do the l_2 and l_3 of
    the invariant observables built on it."""
    rng = random.Random(47)
    obs = invariant_observables(g)
    for _ in range(40):
        u, v, z = ([Q(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Q(0)
                    for _ in range(g.dim)] for _ in range(3))
        want = reference_bracket(g, u, v)
        assert g.bracket(u, v) == want
        assert obs.l2(u, v) == want
        assert obs.l3(z, u, v) == -obs.killing.value(z, want)
    assert g.bracket([1] + [0] * (g.dim - 1), ["1/2"] + [0] * (g.dim - 1)) == [0] * g.dim


@pytest.mark.parametrize("g", [so3(), sl2(), abelian(3), affine2()])
def test_co_differential_squares_to_zero(g):
    ce = CEOperators(g)
    rng = random.Random(31)
    for k in range(0, g.dim - 1):
        cochain = {T: Q(rng.randint(-3, 3))
                   for T in combinations(range(1, g.dim + 1), k)}
        once = ce.co_differential(cochain, k)
        twice = ce.co_differential(once, k + 1)
        assert not any(twice.values())


def test_omega_e_not_a_coboundary():
    ce = CEOperators(so3())
    assert ce.coboundary_test({(1, 2, 3): Q(-2)}, 3) is None


def test_abelian_cochains_closed_only_zero_exact():
    ce = CEOperators(abelian(2))
    cochain = {(1, 2): Q(5)}
    assert ce.co_differential(cochain, 2) == {}
    assert ce.coboundary_test(cochain, 2) is None
    assert ce.coboundary_test({(1, 2): Q(0)}, 2) is not None


# -- actions ---------------------------------------------------------------------


def test_action_homomorphism_checked():
    with pytest.raises(HomomorphismViolation):
        LieAction(so3(), tuple(coordinate_vector(C3, i) for i in (1, 2, 3)))
    act = left_invariant_surrogate(so3())
    assert act.surrogate


def test_obstruction_so3():
    g = so3()
    act = left_invariant_surrogate(g)
    w = canonical_three_form(g)
    rep = obstruction_cochain(act, w, 3)
    assert rep.vanishes is False
    assert rep.cochain[(1, 2, 3)] == function_form(C3, -2)


def test_obstruction_abelian_translations():
    act = translation_action(abelian(2), C3, [2, 3])
    rep2 = obstruction_cochain(act, W3, 2)
    assert rep2.vanishes is True
    # g2(e1,e2) = i_{e3} i_{e2} dx123 = dx1, exact with potential x1
    assert rep2.cochain[(1, 2)] == form(C3, 1, {(1,): 1})
    rep3 = obstruction_cochain(act, W3, 3)
    assert rep3.vanishes is True and rep3.cochain == {}


def test_obstruction_exactness_is_open_off_a_star_shaped_chart_and_at_a_pole():
    off_star = chart(3, star_shaped=False)
    act = translation_action(abelian(1), off_star, [1])
    rep = obstruction_cochain(act, form(off_star, 3, {(1, 2, 3): 1}), 1)
    assert rep.de_rham_exact == {(1,): None} and rep.vanishes is None
    # i_e2 of x1^(-2) dx123 is closed with homotopy weight 1/(2-2)
    ch = chart(3, positive={1})
    act = translation_action(abelian(1), ch, [2])
    rep = obstruction_cochain(act, form(ch, 3, {(1, 2, 3): parse_expression("x1^(-2)", 3)}), 1)
    assert rep.de_rham_exact == {(1,): None} and rep.vanishes is None


def test_obstruction_requires_symmetry():
    act = translation_action(abelian(1), C3, [2])
    w_bad = form(C3, 3, {(1, 2, 3): "x2"})
    with pytest.raises(NotSymmetryAction):
        obstruction_cochain(act, w_bad, 1)


def test_obstruction_invariant_under_invariant_exact_shift():
    g = so3()
    act = left_invariant_surrogate(g)
    w = canonical_three_form(g)
    beta = form(C3, 2, {(1, 2): 3, (1, 3): -1})  # invariant => constant => closed
    w2 = w + ext_d(beta)
    assert w2 == w
    assert obstruction_cochain(act, w2, 3).vanishes is False


# -- comoments ---------------------------------------------------------------------


def test_comoment_symplectic_example():
    act = translation_action(abelian(1), C2, [2])
    eta = form(C2, 1, {(2,): "x1"})
    cm = comoment_from_potential(act, eta, W2)
    assert cm.evaluate(1, [1]) == function_form(C2, "x1")
    rep = comoment_verify(act, W2, cm)
    assert rep.all_zero


def test_comoment_volume_example():
    act = translation_action(abelian(2), C3, [2, 3])
    eta = form(C3, 2, {(2, 3): "x1"})
    cm = comoment_from_potential(act, eta, W3)
    assert cm.evaluate(1, [1]) == form(C3, 1, {(3,): "x1"})
    assert cm.evaluate(2, [1, 2]) == function_form(C3, "-x1")
    rep = comoment_verify(act, W3, cm)
    assert rep.all_zero


def test_comoment_antisymmetric_evaluation():
    act = translation_action(abelian(2), C3, [2, 3])
    eta = form(C3, 2, {(2, 3): "x1"})
    cm = comoment_from_potential(act, eta, W3)
    assert cm.evaluate(2, [2, 1]) == -cm.evaluate(2, [1, 2])
    assert cm.evaluate(2, [1, 1]).is_zero


def test_comoment_noninvariant_potential_rejected():
    act = translation_action(abelian(1), C2, [2])
    eta_bad = form(C2, 1, {(1,): "x2"})  # d eta = -dx12 != w, and L eta != 0
    with pytest.raises(NotInvariantPotential):
        comoment_from_potential(act, eta_bad, W2)
    eta_bad2 = form(C2, 1, {(2,): "x1 + x2"})
    with pytest.raises(NotInvariantPotential):
        comoment_from_potential(act, eta_bad2, W2)


def test_comoment_perturbation_detected_symplectic():
    # perturb f1 by x2: condition (a) residual becomes dx2
    act = translation_action(abelian(1), C2, [2])
    eta = form(C2, 1, {(2,): "x1"})
    cm = comoment_from_potential(act, eta, W2)
    maps = [dict(cm.maps[0])]
    maps[0][(1,)] = maps[0][(1,)] + function_form(C2, "x2")
    bad = type(cm)(cm.algebra, cm.n, tuple(maps))
    rep = comoment_verify(act, W2, bad)
    assert not rep.all_zero
    assert rep.lifting_residuals[1] == form(C2, 1, {(2,): 1})


def test_comoment_perturbation_detected_volume():
    act = translation_action(abelian(2), C3, [2, 3])
    eta = form(C3, 2, {(2, 3): "x1"})
    cm = comoment_from_potential(act, eta, W3)
    maps = [dict(cm.maps[0]), dict(cm.maps[1])]
    maps[0][(1,)] = maps[0][(1,)] + form(C3, 1, {(3,): "x2"})
    bad = type(cm)(cm.algebra, cm.n, tuple(maps))
    rep = comoment_verify(act, W3, bad)
    assert not rep.all_zero
    assert rep.lifting_residuals[1] == form(C3, 2, {(2, 3): 1})


def test_comoment_constant_shift_invisible():
    act = translation_action(abelian(2), C3, [2, 3])
    eta = form(C3, 2, {(2, 3): "x1"})
    cm = comoment_from_potential(act, eta, W3)
    maps = [dict(cm.maps[0]), dict(cm.maps[1])]
    maps[1][(1, 2)] = maps[1][(1, 2)] + function_form(C3, 7)
    shifted = type(cm)(cm.algebra, cm.n, tuple(maps))
    rep = comoment_verify(act, W3, shifted)
    assert rep.all_zero
    assert "constant" in rep.kernel_note


def test_comoment_verify_needs_the_order_of_the_form():
    """A comoment with one component more than the form's order n is a
    DegreeError, not a report; the empty extra component used to pass."""
    act = translation_action(abelian(2), C3, [1, 2])
    cm = comoment_from_potential(act, form(C3, 2, {(1, 2): "x3"}), W3)
    assert comoment_verify(act, W3, cm).all_zero
    extra = type(cm)(cm.algebra, 3, cm.maps + ({},))
    with pytest.raises(DegreeError, match="3 components; the form needs 2"):
        comoment_verify(act, W3, extra)
    with pytest.raises(DegreeError):
        comoment_verify(act, W3, type(cm)(cm.algebra, 1, cm.maps[:1]))


def test_nonabelian_comoment_so3_on_r3_volume():
    """Rotations preserve the volume and x1 dx23-style potentials do not;
    build the invariant potential via the radial contraction instead."""
    g = so3()
    gens = (
        multivec(C3, 1, {(2,): "x3", (3,): "-x2"}),
        multivec(C3, 1, {(3,): "x1", (1,): "-x3"}),
        multivec(C3, 1, {(1,): "x2", (2,): "-x1"}),
    )
    act = LieAction(g, gens)
    from plectic.exterior import poincare_homotopy

    eta = poincare_homotopy(W3)  # radial potential, rotation invariant
    cm = comoment_from_potential(act, eta, W3)
    rep = comoment_verify(act, W3, cm)
    assert rep.all_zero


# -- conserved quantities -------------------------------------------------------------


def H_obs():
    return make_observable(W3, form(C3, 1, {(1,): "x3"}))


def test_conserved_examples():
    H = H_obs()
    assert conserved_classify(W3, H, function_form(C3, "x1")) == STRICT
    assert conserved_classify(W3, H, function_form(C3, "x2")) == LOCALLY
    alpha = form(C3, 1, {(1,): "x2*x3"})
    assert conserved_classify(W3, H, alpha) in (CONSERVED, STRICT, LOCALLY, NOT_CONSERVED)


def test_conserved_exact_certificate():
    H = H_obs()  # X_H = -e2
    alpha = form(C3, 1, {(3,): "x2*x1"})
    # L alpha = -x1 dx3, d(L) = dx13 != 0 -> not conserved
    assert conserved_classify(W3, H, alpha) == NOT_CONSERVED
    alpha2 = form(C3, 1, {(3,): "x2"})
    # L alpha2 = -dx3 closed and exact
    assert conserved_classify(W3, H, alpha2) == CONSERVED


def test_conserved_homotopy_pole_is_undetermined():
    from plectic.liesym import UNDET

    ch = chart(3, positive={1})
    w = form(ch, 3, {(1, 2, 3): 1})
    H = make_observable(w, form(ch, 1, {(1,): "x3"}))  # X_H = -e2
    alpha = form(ch, 1, {(1,): parse_expression("x1^(-1)*x2", 3)})
    # L alpha = -x1^(-1) dx1 is closed but has homotopy weight 1/(1-1)
    assert conserved_classify(w, H, alpha) == UNDET


def test_conserved_off_a_star_shaped_chart_is_local():
    # X_H = -e2 and L alpha = -dx1: exact on R^3, only closed off a star-shaped chart
    for ch, verdict in ((chart(3, star_shaped=False), LOCALLY), (C3, CONSERVED)):
        w = form(ch, 3, {(1, 2, 3): 1})
        H = make_observable(w, form(ch, 1, {(1,): "x3"}))
        assert conserved_classify(w, H, form(ch, 1, {(1,): "x2"})) == verdict


def test_locally_conserved_bracket_strict():
    rng = random.Random(17)
    H = H_obs()
    for _ in range(10):
        a = _locally_conserved(rng)
        b = _locally_conserved(rng)
        assert conserved_classify(W3, H, a) in (LOCALLY, CONSERVED, STRICT)
        bracket = l2(W3, make_observable(W3, a), make_observable(W3, b))
        assert conserved_classify(W3, H, bracket) == STRICT


def _locally_conserved(rng):
    """1-forms whose coefficients are affine in x2 (H = x3 dx1, X_H = -e2)."""
    coeffs = {}
    for i in (1, 2, 3):
        base = parse_expression(
            f"{rng.randint(-3, 3)} + {rng.randint(-2, 2)}*x1*x3", 3
        )
        slope = RationalExpr.const(3, rng.randint(-3, 3))
        coeffs[(i,)] = base + slope * RationalExpr.variable(3, 2)
    return form(C3, 1, coeffs)


def test_comoment_boundary_images_conserved():
    """Image of the CE transform of f_k consists of conserved quantities."""
    act = translation_action(abelian(2), C3, [2, 3])
    eta = form(C3, 2, {(2, 3): "x1"})
    cm = comoment_from_potential(act, eta, W3)
    H = H_obs()  # L_{zeta} H closed for translations
    for X in act.generators:
        from plectic.exterior import lie_derivative

        assert ext_d(lie_derivative(X, form(C3, 1, {(1,): "x3"}))).is_zero
    # abelian algebra: the CE transform vanishes identically, so its image
    # is the zero observable, trivially strictly conserved
    zero = function_form(C3, 0)
    assert conserved_classify(W3, H, zero) == STRICT
