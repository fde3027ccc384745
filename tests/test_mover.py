import math
import random
from fractions import Fraction as Q

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
    ScalarExpr,
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


@pytest.mark.parametrize("seed", range(6))
def test_moves_have_at_most_five_steps(seed):
    rng = random.Random(4100 + seed)
    for _ in range(4):
        n, k = rng.choice([2, 3]), rng.randint(1, 5)
        src, dst = rand_points(rng, k, n), rand_points(rng, k, n)
        auto = move_points(src, dst, n)
        assert len(auto.steps) <= 5
        for s, d in zip(src, dst):
            assert auto.apply(s) == as_point(d)


def _kinds(auto):
    return [getattr(step, "kind", "linear") for step in auto.steps]


def _repeats_a_first_coordinate(pts):
    firsts = [as_point(p)[0] for p in pts]
    return len(set(firsts)) != len(firsts)


@pytest.mark.parametrize("seed", range(4))
def test_a_move_with_distinct_first_coordinates_is_three_shears(seed):
    rng = random.Random(4300 + seed)
    for n in (2, 3):
        while True:
            k = rng.randint(1, 5)
            src, dst = rand_points(rng, k, n), rand_points(rng, k, n)
            if not (_repeats_a_first_coordinate(src) or _repeats_a_first_coordinate(dst)
                    or [p[0] for p in src] == [p[0] for p in dst]):
                break
        auto = move_points(src, dst, n)
        assert _kinds(auto) == ["rest_by_first", "first_by_last", "rest_by_first"]
        for s, d in zip(src, dst):
            assert auto.apply(s) == as_point(d)


@pytest.mark.parametrize("src,dst", [
    ([[1, 0], [1, 1]], [[0, 2], [3, 1]]),
    ([[0, 2], [3, 1]], [[1, 0], [1, 1]]),
    ([[1, 0], [1, 1]], [[GR(0, 1), 0], [GR(0, 1), 2]]),
    ([[1, 0, 0], [1, 1, 0], [2, 0, 1]], [[0, 0, 0], [0, 0, 1], [0, 1, 0]]),
])
def test_a_side_that_repeats_a_first_coordinate_keeps_its_linear_step(src, dst):
    n = len(src[0])
    auto = move_points(src, dst, n)
    assert isinstance(auto.steps[0], LinearStep) is _repeats_a_first_coordinate(src)
    assert isinstance(auto.steps[-1], LinearStep) is _repeats_a_first_coordinate(dst)
    assert all(isinstance(step, ShearStep) for step in auto.steps[1:-1])
    for s, d in zip(src, dst):
        assert auto.apply(s) == as_point(d)
    assert jacobian_determinant(auto) == 1
    assert realify_and_check(auto)[1]


def test_property_a_move_is_linear_only_where_a_first_coordinate_repeats():
    """A move between distinct point sets holds a LinearStep exactly when its
    sources or its targets repeat a first coordinate; a move of points onto
    themselves is the identity linear step."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    small = st.builds(GaussianRational, st.integers(-1, 1), st.integers(-1, 1))

    @st.composite
    def cases(draw):
        n, k = draw(st.sampled_from([2, 3])), draw(st.integers(0, 4))
        sides = st.lists(st.tuples(*[small] * n), min_size=k, max_size=k, unique=True)
        return n, draw(sides), draw(sides)

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        n, src, dst = case
        auto = move_points(src, dst, n)
        if src == dst:
            assert auto == move_points([], [], n)
            return
        repeats = _repeats_a_first_coordinate(src) or _repeats_a_first_coordinate(dst)
        assert ("linear" in _kinds(auto)) is repeats
        assert jacobian_determinant(auto) == 1

    check()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_move_of_points_onto_themselves_is_the_identity(k):
    rng = random.Random(4200 + k)
    for n in (2, 3):
        pts = rand_points(rng, k, n)
        assert move_points(pts, pts, n) == move_points([], [], n)


def test_property_fused_composition_is_the_unfused_map():
    """b.compose(a) fuses adjacent steps of one kind; it is the same map as
    the unfused PolyAuto(dim, a.steps + b.steps) at random Gaussian points,
    with determinant 1 and a preserved realified volume, and no two of its
    adjacent steps are of one kind."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    gaussians = st.builds(GaussianRational, rationals, rationals)
    polys = st.lists(st.one_of(st.just(GR(0)), gaussians), max_size=3).map(Poly)

    def linear(dim):
        def det_one(rows):
            d = det(rows)
            return LinearStep([[v / d for v in rows[0]]] + rows[1:]) if d else None
        matrices = st.lists(st.lists(gaussians, min_size=dim, max_size=dim),
                            min_size=dim, max_size=dim)
        return matrices.map(det_one).filter(bool)

    def shear(dim, kind):
        count = dim - 1 if kind == "rest_by_first" else 1
        return st.builds(ShearStep, st.just(kind), st.just(dim),
                         st.tuples(*[polys] * count), st.sampled_from([-1, 1]))

    @st.composite
    def autos(draw, dim):
        kinds = [linear(dim), shear(dim, "rest_by_first"), shear(dim, "first_by_last")]
        steps = []
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, 2))
            steps.append(draw(kinds[i]))
            if draw(st.booleans()):  # a step that can fuse with it, often its inverse
                steps.append(steps[-1].inverse() if draw(st.booleans()) else draw(kinds[i]))
        return PolyAuto(dim, tuple(steps))

    @st.composite
    def cases(draw):
        dim = draw(st.sampled_from([2, 3]))
        a = draw(autos(dim))
        b = a.inverse() if draw(st.integers(0, 4)) == 0 else draw(autos(dim))
        pts = draw(st.lists(st.tuples(*[gaussians] * dim), min_size=1, max_size=3))
        return a, b, pts

    def kind(step):
        return getattr(step, "kind", "linear")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        a, b, pts = case
        fused, unfused = b.compose(a), PolyAuto(a.dim, a.steps + b.steps)
        for p in pts:
            assert fused.apply(p) == unfused.apply(p)
        assert jacobian_determinant(fused) == 1
        assert realify_and_check(fused)[1]
        assert all(kind(x) != kind(y) for x, y in zip(fused.steps, fused.steps[1:]))
        if b == a.inverse():
            assert fused == move_points([], [], a.dim)

    check()


# -- Jacobians -------------------------------------------------------------------------


def test_shear_jacobian_one():
    shear = ShearStep("rest_by_first", 2, (Poly((GR(0), GR(0), GR(0), GR(1))),), -1)
    auto = PolyAuto(2, (shear,))
    assert jacobian_determinant(auto) == 1


def test_a_shear_needs_dimension_two():
    # in dimension 1, x -> x - x^2 sends 1 to 0 and is no automorphism
    with pytest.raises(ShapeError):
        ShearStep("first_by_last", 1, (Poly((0, 0, 1)),))


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


def _components(step):
    """The step's components as Gaussian polynomials in z_1..z_n, written out
    from its matrix or from the shape of its kind, not from its pieces."""
    n = step.dim
    if isinstance(step, LinearStep):
        return [sum((Poly((0, m)).as_expr(n, j + 1) for j, m in enumerate(row)),
                    ScalarExpr.const(n, 0)) for row in step.matrix]
    comps = [ScalarExpr.variable(n, i + 1) for i in range(n)]
    moved = ([(i, 1) for i in range(1, n)] if step.kind == "rest_by_first" else [(0, n)])
    for (i, var), poly in zip(moved, step.polys):
        comps[i] = comps[i] + poly.as_expr(n, var).scale(Q(step.sign))
    return comps


@pytest.mark.parametrize("seed", range(6))
def test_realify_step_matches_the_repeated_multiplication_reference(seed):
    rng = random.Random(2600 + seed)
    for n in (2, 3):
        for step in rand_steps(rng, n):
            got = realify_step(step, n).components
            assert len(got) == 2 * n
            for i, comp in enumerate(_components(step)):
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
def test_a_tampered_linear_step_fails_the_volume_check(seed):
    """A linear step whose first row is scaled after its det-1 check keeps
    the volume only for the factor 1, and its Jacobian is the factor."""
    rng = random.Random(2900 + seed)
    for n in (2, 3):
        for factor, expected in ((1, True), (2, False), (GR(0, 1), False)):
            auto = PolyAuto(n, (_changed(LinearStep(rand_det_one_matrix(rng, n)), factor),))
            assert realify_and_check(auto)[1] is expected
            assert jacobian_determinant(auto).constant_value() == factor


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


def test_poly_auto_admits_only_linear_steps_and_shears():
    """A step of another type is a ShapeError when the automorphism is built,
    even when it carries the right ``dim``; Jacobians, realification and JSON
    then see only the two step types."""
    class ForeignStep:
        dim = 2

    with pytest.raises(ShapeError, match="unknown step"):
        PolyAuto(2, (ForeignStep(),))
    with pytest.raises(ShapeError, match="unknown step"):
        PolyAuto(2, (LinearStep([[1, 0], [0, 1]]), ForeignStep()))
    with pytest.raises(ShapeError, match="dimension mismatch"):
        PolyAuto(3, (LinearStep([[1, 0], [0, 1]]),))
