import random
from fractions import Fraction as Q

import pytest

from plectic.errors import DuplicatePoints, NonPolynomial, ShapeError
from plectic.exterior import SmoothMap, chart, form, pullback
from plectic.mover import (
    GR,
    LinearStep,
    Poly,
    PolyAuto,
    ShearStep,
    as_point,
    interleaved_chart,
    jacobian_determinant,
    move_points,
    real_volume_form,
    realify_and_check,
    realify_scalar,
    separating_linear_map,
)
from plectic.scalar import (
    GaussianRational,
    ScalarExpr,
    parse_expression,
    parse_gaussian,
)
from interpolation_reference import reference_interpolate
from realify_reference import reference_realify


def rand_gauss(rng, span=3):
    return GaussianRational(
        Q(rng.randint(-span, span), rng.choice([1, 1, 2])),
        Q(rng.randint(-span, span), rng.choice([1, 1, 2])),
    )


def rand_points(rng, k, n):
    pts = set()
    while len(pts) < k:
        pts.add(tuple(rand_gauss(rng) for _ in range(n)))
    return [list(p) for p in pts]


# -- polynomials -----------------------------------------------------------------


def test_lagrange_interpolation():
    xs = [GR(0), GR(1), GR(2)]
    ys = [GR(1), GR(0), GR(5)]
    p = Poly.interpolate(xs, ys)
    for x, y in zip(xs, ys):
        assert p(x) == y
    assert p.degree <= 2


def test_interpolation_duplicate_nodes():
    with pytest.raises(DuplicatePoints):
        Poly.interpolate([GR(1), GR(1)], [GR(0), GR(1)])


@pytest.mark.parametrize("seed", range(4))
def test_interpolation_matches_the_lagrange_reference(seed):
    rng = random.Random(2700 + seed)
    for k in range(1, 7):
        xs = []
        while len(xs) < k:
            x = rand_gauss(rng)
            if x not in xs:
                xs.append(x)
        ys = [rand_gauss(rng) if rng.random() < 0.8 else GR(0) for _ in range(k)]
        assert Poly.interpolate(xs, ys).coeffs == reference_interpolate(xs, ys)


# -- separating map ---------------------------------------------------------------


def test_separating_map_example():
    pts = [as_point([0, 0]), as_point([0, 1])]
    T = separating_linear_map(pts, 2)
    images = [T.apply(p) for p in pts]
    assert images[0][0] != images[1][0]


def test_separating_map_single_point_identity():
    T = separating_linear_map([as_point([1, 2, 3])], 3)
    assert T.apply(as_point([1, 2, 3])) is not None


def test_separating_map_duplicates_rejected():
    with pytest.raises(DuplicatePoints):
        separating_linear_map([as_point([1, 0]), as_point([1, 0])], 2)


@pytest.mark.parametrize("seed", range(6))
def test_separating_map_random(seed):
    rng = random.Random(500 + seed)
    n = rng.choice([2, 3])
    pts = [as_point(p) for p in rand_points(rng, rng.randint(2, 5), n)]
    T = separating_linear_map(pts, n)
    firsts = [T.apply(p)[0] for p in pts]
    assert len(set(firsts)) == len(firsts)


# -- moves --------------------------------------------------------------------------


def test_move_identity_pattern():
    src = [["1", "2"], ["0", "i"]]
    pts = [[parse_gaussian(v) for v in p] for p in src]
    auto = move_points(pts, pts, 2)
    for p in pts:
        assert auto.apply(p) == tuple(p)


def test_move_single_point_n3():
    auto = move_points([[0, 0, 0]], [[1, 2, 3]], 3)
    assert auto.apply([0, 0, 0]) == as_point([1, 2, 3])
    assert jacobian_determinant(auto) == 1


def test_move_requires_dimension_two():
    with pytest.raises(ShapeError):
        move_points([[0]], [[1]], 1)


def test_move_duplicate_rejection():
    with pytest.raises(DuplicatePoints):
        move_points([[0, 0], [0, 0]], [[1, 0], [2, 0]], 2)


@pytest.mark.parametrize("seed", range(8))
def test_move_random(seed):
    rng = random.Random(900 + seed)
    n = rng.choice([2, 3])
    k = rng.randint(1, 5)
    src = rand_points(rng, k, n)
    dst = rand_points(rng, k, n)
    auto = move_points(src, dst, n)
    for s, d in zip(src, dst):
        assert auto.apply(s) == as_point(d)
    assert jacobian_determinant(auto) == 1


@pytest.mark.parametrize("seed", range(4))
def test_inverse_round_trip(seed):
    rng = random.Random(1300 + seed)
    n = rng.choice([2, 3])
    src = rand_points(rng, 3, n)
    dst = rand_points(rng, 3, n)
    auto = move_points(src, dst, n)
    inv = auto.inverse()
    for _ in range(20):
        p = [rand_gauss(rng) for _ in range(n)]
        assert inv.apply(auto.apply(p)) == as_point(p)


# -- Jacobians -------------------------------------------------------------------------


def test_shear_jacobian_one():
    shear = ShearStep("rest_by_first", 2, (Poly((GR(0), GR(0), GR(0), GR(1))),), -1)
    auto = PolyAuto(2, (shear,))
    assert jacobian_determinant(auto) == 1


def test_linear_step_det_constraint():
    ok = LinearStep(((GR(2), GR(0)), (GR(0), GR(Q(1, 2)))))
    assert jacobian_determinant(PolyAuto(2, (ok,))) == 1
    with pytest.raises(ShapeError):
        LinearStep(((GR(2), GR(0)), (GR(0), GR(1))))


def test_smooth_map_jacobian():
    c2 = chart(2)
    f = SmoothMap(c2, c2, (parse_expression("x1^2", 2), parse_expression("x2", 2)))
    assert jacobian_determinant(f) == parse_expression("2*x1", 2)
    bad = SmoothMap(c2, c2, (parse_expression("x1", 2) / parse_expression("x2", 2),
                             parse_expression("x2", 2)))
    with pytest.raises(NonPolynomial):
        jacobian_determinant(bad)


# -- realification -----------------------------------------------------------------------


def test_realify_scalar_expansion():
    # z1^2 over C: (x1 + i x2)^2 = x1^2 - x2^2 + 2 i x1 x2
    z2 = ScalarExpr.variable(1, 1, 2)
    re, im = realify_scalar(z2)
    assert re == parse_expression("x1^2 - x2^2", 2).num
    assert im == parse_expression("2*x1*x2", 2).num


@pytest.mark.parametrize("seed", range(6))
def test_realify_scalar_matches_the_repeated_multiplication_reference(seed):
    rng = random.Random(2600 + seed)
    for _ in range(10):
        n = rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 5) for _ in range(n))
            c = rand_gauss(rng) if rng.random() < 0.7 else Q(rng.randint(-4, 4), rng.randint(1, 3))
            terms[exps] = c
        expr = ScalarExpr(n, terms)
        got = realify_scalar(expr)
        assert got == reference_realify(expr)
        for part in got:
            assert part.dim == 2 * n
            for exps, c in part.terms.items():
                assert all(type(e) is int for e in exps)
                assert type(c) is Q and c


@pytest.mark.parametrize("exponent", [-1, Q(1, 2)])
def test_realify_scalar_rejects_non_polynomial_exponents(exponent):
    expr = ScalarExpr(2, {(1, 0): GR(1), (0, exponent): GR(2, 1)})
    with pytest.raises(NonPolynomial):
        realify_scalar(expr)
    with pytest.raises(NonPolynomial):
        reference_realify(expr)


def test_real_volume_forms():
    v2 = real_volume_form(2)
    assert v2 == form(interleaved_chart(2), 2, {(1, 3): 1, (2, 4): -1})
    v3 = real_volume_form(3)
    assert v3 == form(interleaved_chart(3), 3, {
        (1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1,
    })


def test_identity_preserves_volume():
    ident = LinearStep(((GR(1), GR(0)), (GR(0), GR(1))))
    _, ok = realify_and_check(PolyAuto(2, (ident,)))
    assert ok


def test_complex_shear_preserves_volume():
    # (z1, z2) -> (z1, z2 - z1^2)
    shear = ShearStep("rest_by_first", 2, (Poly((GR(0), GR(0), GR(1))),), -1)
    realified, ok = realify_and_check(PolyAuto(2, (shear,)))
    assert ok
    # the realified map itself pulls the volume back to itself
    smooth = realified.steps[0]
    vol = real_volume_form(2)
    assert pullback(smooth, vol) == vol


@pytest.mark.parametrize("seed", range(4))
def test_move_realified_invariance(seed):
    rng = random.Random(1700 + seed)
    n = rng.choice([2, 3])
    src = rand_points(rng, rng.randint(2, 4), n)
    dst = rand_points(rng, rng.randint(2, 4), n)
    # match lengths
    k = min(len(src), len(dst))
    auto = move_points(src[:k], dst[:k], n)
    realified, ok = realify_and_check(auto)
    assert ok
    # the realified composition evaluates consistently with the complex map
    p = [rand_gauss(rng) for _ in range(n)]
    flat = []
    for z in p:
        flat.extend([z.re, z.im])
    image = realified.apply(flat)
    complex_image = auto.apply(p)
    expect = []
    for z in complex_image:
        expect.extend([z.re, z.im])
    assert image == expect
