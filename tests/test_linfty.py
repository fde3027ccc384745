import random
import warnings
from fractions import Fraction as Q
from itertools import combinations

import pytest

from plectic.errors import DegreeError, NotHamiltonian
from plectic.exterior import (
    chart,
    coordinate_vector,
    form,
    function_form,
    interior,
    multivec,
    product_chart,
    projection,
    pullback,
)
from plectic.linfty import (
    Observable,
    TrivialExtensionWarning,
    jacobiator_identity_residual,
    l2,
    l_k,
    linfty_relation_residual,
    make_observable,
)
from plectic.liesym import invariant_observables, so3
from plectic.scalar import RationalExpr, parse_expression
from util import HamiltonianSampler

C2 = chart(2)
C3 = chart(3)
C4 = chart(4)
C6 = chart(6)
W2 = form(C2, 2, {(1, 2): 1})
W3 = form(C3, 3, {(1, 2, 3): 1})
W4 = form(C4, 4, {(1, 2, 3, 4): 1})
W6 = form(C6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})


def test_make_observable_examples():
    a = make_observable(W3, form(C3, 1, {(1,): "x3"}))
    assert a.ham_field == multivec(C3, 1, {(2,): -1})
    b = make_observable(W2, function_form(C2, "x1"))
    assert b.ham_field == coordinate_vector(C2, 2)
    with pytest.raises(NotHamiltonian):
        make_observable(W6, form(C6, 1, {(4,): "x1"}))
    low = make_observable(W3, function_form(C3, "x1"))
    assert low.ham_field is None


def test_l2_volume_example():
    a = make_observable(W3, form(C3, 1, {(1,): "x3"}))
    b = make_observable(W3, form(C3, 1, {(2,): "x1"}))
    assert l2(W3, a, b) == form(C3, 1, {(1,): 1})


def test_l3_sign():
    # observables with X_i = e_i
    args = []
    for i in range(1, 4):
        closed = interior(coordinate_vector(C4, i), W4)
        from plectic.exterior import poincare_homotopy

        alpha = poincare_homotopy(closed).scale(-1)
        obs = make_observable(W4, alpha)
        assert obs.ham_field == coordinate_vector(C4, i)
        args.append(obs)
    assert l_k(W4, args) == form(C4, 1, {(4,): -1})


def test_l_k_alternating():
    rng = random.Random(5)
    sampler = HamiltonianSampler(W3)
    a = make_observable(W3, sampler.sample(rng))
    b = make_observable(W3, sampler.sample(rng))
    assert l2(W3, a, b) == -l2(W3, b, a)
    assert l2(W3, a, a).is_zero


def test_l_k_trivial_extension_warns():
    low = make_observable(W3, function_form(C3, "x1"))
    top = make_observable(W3, form(C3, 1, {(1,): "x3"}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = l_k(W3, [low, top])
    assert out.is_zero
    assert any(issubclass(w.category, TrivialExtensionWarning) for w in caught)


def test_l_k_arity_bounds():
    top = make_observable(W3, form(C3, 1, {(1,): "x3"}))
    with pytest.raises(DegreeError):
        l_k(W3, [top])
    with pytest.raises(DegreeError):
        l_k(W3, [top, top, top, top])


def test_bracket_and_relation_name_the_degree_they_need():
    # a form of degree < 2 has no plectic order: l_k and the relation say so
    # rather than reporting an empty arity range
    args = [Observable(function_form(C2, "x1")), Observable(function_form(C2, "x2"))]
    for w in (form(C2, 1, {(1,): 1}), function_form(C2, "1")):
        got = f"degree >= 2, not {w.degree}"
        with pytest.raises(DegreeError, match=f"a bracket needs a form of {got}"):
            l_k(w, args)
        with pytest.raises(DegreeError, match=f"an L-infinity relation needs a form of {got}"):
            linfty_relation_residual(w, 2, args + args[:1])


def test_volume_l2_formula_r3():
    _check_volume_formula(3, seed=11)


def test_volume_l2_formula_r4():
    _check_volume_formula(4, seed=12)


def _check_volume_formula(n, seed):
    """Oracle: the displayed double-sum formula for l2 on volume charts."""
    rng = random.Random(seed)
    ch = chart(n)
    w = form(ch, n, {tuple(range(1, n + 1)): 1})

    def rand_linear():
        return RationalExpr(
            parse_expression(
                " + ".join(
                    f"{rng.randint(-3, 3)}*x{j}" for j in range(1, n + 1)
                ) or "0",
                n,
            ).num
        )

    pairs = list(combinations(range(1, n + 1), 2))
    f = {p: rand_linear() for p in pairs}
    ft = {p: rand_linear() for p in pairs}

    def alpha_from(fs):
        total = form(ch, n - 2, {})
        for (i, j), c in fs.items():
            base = interior(
                multivec(ch, 2, {(i, j): 1}), w
            )
            total = total + base.scale(c)
        return total

    def field_components(fs):
        # X_j = sum_{k != j} d f_{kj} / dx_k with f_{kj} = -f_{jk}
        comp = {}
        for j in range(1, n + 1):
            acc = RationalExpr.const(n, 0)
            for k in range(1, n + 1):
                if k == j:
                    continue
                key = (k, j) if k < j else (j, k)
                c = fs.get(key, RationalExpr.const(n, 0))
                if k > j:
                    c = -c
                acc = acc + c.partial(k)
            comp[j] = acc
        return comp

    alpha, alphat = alpha_from(f), alpha_from(ft)
    oa = make_observable(w, alpha)
    ob = make_observable(w, alphat)
    # the solved field matches the displayed field formula
    Xc = field_components(f)
    expected_field = multivec(ch, 1, {(j,): Xc[j] for j in Xc if Xc[j]})
    assert oa.ham_field == expected_field

    got = l2(w, oa, ob)
    Xt = field_components(ft)
    formula = form(ch, n - 2, {})
    for (i, j) in pairs:
        coeff = Xc[i] * Xt[j] - Xc[j] * Xt[i]
        base = interior(multivec(ch, 2, {(i, j): 1}), w)
        formula = formula + base.scale(coeff)
    assert got == formula


@pytest.mark.parametrize("seed", range(10))
def test_relation_residual_r3(seed):
    rng = random.Random(2000 + seed)
    sampler = HamiltonianSampler(W3)
    args = [make_observable(W3, sampler.sample(rng)) for _ in range(3)]
    assert linfty_relation_residual(W3, 2, args).is_zero


@pytest.mark.parametrize("seed", range(5))
def test_relation_residual_r6(seed):
    rng = random.Random(3000 + seed)
    sampler = HamiltonianSampler(W6)
    args3 = [make_observable(W6, sampler.sample(rng)) for _ in range(3)]
    assert linfty_relation_residual(W6, 2, args3).is_zero
    args4 = [make_observable(W6, sampler.sample(rng)) for _ in range(4)]
    assert linfty_relation_residual(W6, 3, args4).is_zero


def test_relation_symplectic_jacobi():
    rng = random.Random(77)
    sampler = HamiltonianSampler(W2)
    args = [make_observable(W2, sampler.sample(rng)) for _ in range(3)]
    assert linfty_relation_residual(W2, 2, args).is_zero
    assert jacobiator_identity_residual(W2, *args).is_zero


@pytest.mark.parametrize("seed", range(5))
def test_jacobiator_identity(seed):
    rng = random.Random(4000 + seed)
    sampler = HamiltonianSampler(W3)
    a, b, c = (make_observable(W3, sampler.sample(rng)) for _ in range(3))
    assert jacobiator_identity_residual(W3, a, b, c).is_zero
    assert jacobiator_identity_residual(W3, a, b, b).is_zero


def test_jacobiator_on_worked_triple():
    a = make_observable(W3, form(C3, 1, {(1,): "x3"}))
    b = make_observable(W3, form(C3, 1, {(2,): "x1"}))
    c = make_observable(W3, form(C3, 1, {(3,): "x2"}))
    assert jacobiator_identity_residual(W3, a, b, c).is_zero


def test_sum_functoriality():
    """Blockwise brackets match brackets of lifted observables on a product."""
    rng = random.Random(99)
    prod = product_chart(C3, C3)
    p1 = projection(prod, C3, 0)
    p2 = projection(prod, C3, 3)
    w_tot = pullback(p1, W3) + pullback(p2, W3)
    sampler = HamiltonianSampler(W3)
    a, b = sampler.sample(rng), sampler.sample(rng)
    at, bt = sampler.sample(rng), sampler.sample(rng)
    lifted_a = make_observable(w_tot, pullback(p1, a) + pullback(p2, at))
    lifted_b = make_observable(w_tot, pullback(p1, b) + pullback(p2, bt))
    got = l2(w_tot, lifted_a, lifted_b)
    blockwise = l2(W3, make_observable(W3, a), make_observable(W3, b))
    blockwise_t = l2(W3, make_observable(W3, at), make_observable(W3, bt))
    assert got == pullback(p1, blockwise) + pullback(p2, blockwise_t)


def test_invariant_lie_surrogate():
    """l2 = bracket and l3 = -<x,[y,z]> under the Killing identification."""
    g = so3()
    inv = invariant_observables(g)
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for x in basis:
        assert inv.hamiltonian_check(x)
    assert inv.l2(basis[0], basis[1]) == [Q(0), Q(0), Q(1)]
    assert inv.l3(basis[0], basis[1], basis[2]) == 2  # -omega_e(e1,e2,e3) = 2
    rng = random.Random(13)
    for _ in range(10):
        x, y, z = ([Q(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3))
        assert inv.l3(x, y, z) == -inv.killing.value(x, g.bracket(y, z))
        assert inv.l2(x, y) == g.bracket(x, y)
