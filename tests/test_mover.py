import math
import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from plectic import catalog
from plectic.errors import DuplicatePoints, NonPolynomial, ShapeError
from plectic.exterior import SmoothMap, chart, form, pullback
from plectic.linalg import det
from plectic.mover import (
    GR,
    LinearStep,
    Poly,
    PolyAuto,
    RealifiedAuto,
    ShearStep,
    as_point,
    interleaved_chart,
    jacobian_determinant,
    move_points,
    realify_and_check,
    realify_step,
    separating_linear_map,
)
from plectic.scalar import (
    GaussianRational,
    parse_expression,
    parse_gaussian,
)
from gaussian_reference import ReferenceGaussian
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


def test_property_horner_matches_repeated_multiplication():
    """Poly(x), evaluated by homogenised Horner over Gaussian integers, is
    sum c_k x^k built by repeated multiplication in the two-Fraction
    reference, in normal form: the zero polynomial, constants, coefficients
    with mixed denominators, and x with a denominator (Gaussian, Fraction
    or int)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    gaussians = st.builds(GaussianRational, rationals, rationals)
    points = st.one_of(gaussians, rationals, st.integers(-5, 5))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(gaussians, max_size=7), points)
    @hypothesis.example([], GR(Q(1, 3), Q(-2, 5)))
    @hypothesis.example([GR(Q(-5, 7))], GR(Q(1, 3), 2))
    @hypothesis.example([GR(Q(1, 2)), GR(0, Q(2, 3)), GR(Q(-3, 5), Q(1, 4))],
                        GR(Q(2, 9), Q(-1, 6)))
    def check(coeffs, x):
        rx = ReferenceGaussian(x.re, x.im) if type(x) is GaussianRational else x
        want, power = ReferenceGaussian(0), ReferenceGaussian(1)
        for c in coeffs:
            want = want + ReferenceGaussian(c.re, c.im) * power
            power = power * rx
        got = Poly(coeffs)(x)
        assert type(got) is GaussianRational
        assert got._d > 0 and math.gcd(got._a, got._b, got._d) == 1
        assert (got.re, got.im) == (want.re, want.im)

    check()


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


def test_duplicate_gaussian_points_are_found_however_they_are_built():
    # (1 + 2i)/2 three ways: its hash reads the reduced integers (1, 2, 2)
    z = GR(1, 2) / 2
    same = (GR(Q(1, 2), 1), parse_gaussian("1/2+i"), GR(Q(1, 4), Q(1, 2)) * 2)
    for w in same:
        assert w == z and hash(w) == hash(z)
        with pytest.raises(DuplicatePoints):
            Poly.interpolate([z, GR(3), w], [GR(0), GR(1), GR(2)])
        with pytest.raises(DuplicatePoints):
            move_points([[z, 0], [w, 0]], [[1, 0], [2, 0]], 2)
        with pytest.raises(DuplicatePoints):
            move_points([[1, 0], [2, 0]], [[0, z], [0, w]], 2)


def test_move_of_no_points_is_the_identity():
    auto = move_points([], [], 3)
    (step,) = auto.steps
    assert isinstance(step, LinearStep) and step.matrix == tuple(
        tuple(GR(int(i == j)) for j in range(3)) for i in range(3))
    p = as_point([GR(1, 2), 3, GR(0, -1)])
    assert auto.apply(p) == p
    assert jacobian_determinant(auto) == 1
    assert realify_and_check(auto)[1]


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


def test_realify_step_expansion():
    # (z1, z2) -> (z1, z2 - z1^2) over R^4: x3 - x1^2 + x2^2 and x4 - 2 x1 x2
    shear = ShearStep("rest_by_first", 2, (Poly((GR(0), GR(0), GR(1))),), -1)
    comps = realify_step(shear, 2).components
    want = ["x1", "x2", "-x1^2 + x2^2 + x3", "-2*x1*x2 + x4"]
    assert comps == tuple(parse_expression(w, 4) for w in want)


def rand_det_one_matrix(rng, n):
    """A seeded Gaussian matrix scaled in its last row to determinant one."""
    while True:
        M = [[rand_gauss(rng) for _ in range(n)] for _ in range(n)]
        d = det(M)
        if d:
            M[-1] = [v / d for v in M[-1]]
            return M


def rand_poly(rng):
    return Poly([rand_gauss(rng) for _ in range(rng.randint(0, 5))])


def rand_steps(rng, n):
    """LinearSteps and both shear kinds, each with sign +1 and -1."""
    steps = [LinearStep(rand_det_one_matrix(rng, n))]
    for sign in (1, -1):
        steps.append(ShearStep("rest_by_first", n, tuple(rand_poly(rng) for _ in range(n - 1)),
                               sign))
        steps.append(ShearStep("first_by_last", n, (rand_poly(rng),), sign))
    return steps


@pytest.mark.parametrize("seed", range(6))
def test_realify_step_matches_the_repeated_multiplication_reference(seed):
    rng = random.Random(2600 + seed)
    for n in (2, 3):
        for step in rand_steps(rng, n):
            got = realify_step(step, n).components
            assert len(got) == 2 * n
            for i, comp in enumerate(step.components()):
                re, im = reference_realify(comp)
                assert (got[2 * i].num, got[2 * i + 1].num) == (re, im)
            for part in got:
                assert part.den_is_one and part.den.terms == {(0,) * (2 * n): 1}
                for exps, c in part.num.terms.items():
                    assert all(type(e) is int for e in exps)
                    assert type(c) is Q and c


def _changed(step, factor):
    """The step with its first row multiplied by factor after construction."""
    m = (tuple(v * factor for v in step.matrix[0]),) + step.matrix[1:]
    object.__setattr__(step, "matrix", m)
    return step


@pytest.mark.parametrize("seed", range(4))
def test_linear_route_matches_the_general_pullback(seed):
    rng = random.Random(2900 + seed)
    for n in (2, 3):
        ch = interleaved_chart(n)
        vol = catalog.complex_volume_re(n)
        forms = [vol] + [form(ch, k, {idx: rand_gauss(rng).re for idx in
                                      rng.sample(list(combinations(range(1, 2 * n + 1), k)), 3)})
                         for k in (1, 2)]
        for factor, expected in ((1, True), (2, False), (GR(0, 1), False)):
            step = _changed(LinearStep(rand_det_one_matrix(rng, n)), factor)
            smooth = realify_step(step, n)
            for a in forms:
                want = pullback(smooth, a)
                assert RealifiedAuto(n, (smooth,)).pullback(a) == want
            auto = PolyAuto(n, (step,))
            assert realify_and_check(auto)[1] is expected
            assert jacobian_determinant(auto).constant_value() == factor


def test_linear_route_runs_the_integer_minor_kernel(monkeypatch):
    """A realified linear step pulls the volume back through
    constant_linear_pullback; a shear does not, nor does a linear step once
    the form it receives has non-constant coefficients."""
    import plectic.mover as mv

    calls = []
    kernel = mv.constant_linear_pullback
    monkeypatch.setattr(mv, "constant_linear_pullback",
                        lambda a, M: calls.append(len(M)) or kernel(a, M))
    shear = ShearStep("rest_by_first", 2, (Poly((GR(0), GR(0), GR(1))),), -1)
    linear = LinearStep(((GR(1), GR(1)), (GR(0), GR(1))))
    _, ok = realify_and_check(PolyAuto(2, (linear, shear, linear)))
    assert ok and calls == [4, 4]  # the shear hands the volume on unchanged
    calls.clear()
    smooth = realify_step(linear, 2)
    a = form(interleaved_chart(2), 1, {(1,): parse_expression("x1", 4)})
    assert RealifiedAuto(2, (smooth,)).pullback(a) == pullback(smooth, a)
    assert not calls


def test_real_volume_forms():
    v2 = catalog.complex_volume_re(2)
    assert v2 == form(interleaved_chart(2), 2, {(1, 3): 1, (2, 4): -1})
    v3 = catalog.complex_volume_re(3)
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
    vol = catalog.complex_volume_re(2)
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
