import random
from fractions import Fraction as Q
from itertools import combinations

import pytest

from plectic import exterior
from plectic.catalog import omega_f, product6, symplectic_power
from plectic.classify import nondegenerate
from plectic.errors import (
    ChartMismatch,
    DegreeError,
    DomainViolation,
    HomotopyPole,
)
from plectic.exterior import (
    _minor_sums,
    MultiVec,
    SmoothMap,
    basis_one_form,
    chart,
    constant_linear_pullback,
    contraction_matrix,
    contraction_solve,
    coordinate_vector,
    ext_d,
    form,
    function_form,
    interior,
    lie_derivative,
    multivec,
    poincare_homotopy,
    product_chart,
    projection,
    pullback,
    pushforward_at,
    sort_index_tuple,
    vf_bracket,
    wedge,
)
from plectic.hdw import ham_vector_field
from plectic.scalar import GaussianRational, RationalExpr, ScalarExpr, parse_expression
from util import (
    det_minor_sums,
    ext_d_all_variables,
    linear_map,
    pullback_all_variables,
    rand_form,
    rand_fraction,
    rand_poly,
    rand_rational_gl,
    rand_vector_field,
)

C3 = chart(3)
C6 = chart(6, positive={2})


def f(ch, degree, coeffs):
    return form(ch, degree, coeffs)


# -- wedge --------------------------------------------------------------------


def test_wedge_antisymmetry():
    dx1, dx2 = basis_one_form(C3, 1), basis_one_form(C3, 2)
    assert wedge(dx1, dx2) == f(C3, 2, {(1, 2): 1})
    assert wedge(dx2, dx1) == f(C3, 2, {(1, 2): -1})


def test_wedge_blocks():
    c4 = chart(4)
    a = f(c4, 2, {(1, 2): 1})
    b = f(c4, 2, {(3, 4): 1})
    assert wedge(a, b) == f(c4, 4, {(1, 2, 3, 4): 1})


def test_wedge_repeated_index_vanishes():
    a = f(C3, 1, {(1,): "x2"})
    assert wedge(a, basis_one_form(C3, 1)).is_zero


def test_wedge_chart_mismatch():
    with pytest.raises(ChartMismatch):
        wedge(basis_one_form(C3, 1), basis_one_form(chart(4), 1))


@pytest.mark.parametrize("seed", range(4))
def test_wedge_graded_commutative_associative(seed):
    rng = random.Random(seed)
    c4 = chart(4)
    ka, kb = rng.randint(1, 2), rng.randint(1, 2)
    a = rand_form(rng, c4, ka)
    b = rand_form(rng, c4, kb)
    c = rand_form(rng, c4, 1)
    sign = (-1) ** (ka * kb)
    ba = wedge(b, a)
    assert wedge(a, b) == (ba if sign == 1 else -ba)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# -- exterior derivative -------------------------------------------------------


def test_d_basic():
    assert ext_d(f(C3, 1, {(2,): "x1"})) == f(C3, 2, {(1, 2): 1})


def test_d_squared_zero_examples():
    a = f(C3, 1, {(3,): "x1*x2"})
    assert ext_d(ext_d(a)).is_zero


def test_d_omega1_nonflat_example():
    # the half-space construction: w1 = (1/(2 sqrt x2)) a1 ^ a2 ^ a3
    s = parse_expression("x2^(1/2)", 6)
    a1 = f(C6, 1, {(2,): s, (1,): -1})
    a2 = f(C6, 1, {(4,): s, (3,): -1})
    a3 = f(C6, 1, {(5,): s, (6,): 1})
    w1 = wedge(wedge(a1, a2), a3).scale(1 / (2 * s))
    expected = f(C6, 4, {
        (1, 2, 4, 5): parse_expression("1/4*x2^(-1/2)", 6),
        (1, 2, 3, 6): parse_expression("1/4*x2^(-3/2)", 6),
    })
    assert ext_d(w1) == expected


@pytest.mark.parametrize("seed", range(5))
def test_d_squared_zero_random(seed):
    rng = random.Random(40 + seed)
    c4 = chart(4)
    a = rand_form(rng, c4, rng.randint(0, 3))
    assert ext_d(ext_d(a)).is_zero


def test_property_ext_d():
    """d^2 = 0, the graded Leibniz rule and d of functions on random
    polynomial forms on R^4, with constant coefficients among them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    c4 = chart(4)
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    monomials = st.tuples(fractions, st.lists(st.integers(0, 2), min_size=4, max_size=4))
    zero = RationalExpr.const(4, 0)
    coefficients = st.one_of(
        fractions.map(lambda c: RationalExpr.const(4, c)),
        st.lists(monomials, min_size=1, max_size=3).map(lambda terms: sum(
            (RationalExpr(ScalarExpr.monomial(4, c, exps)) for c, exps in terms), zero)))

    @st.composite
    def forms(draw):
        p = draw(st.integers(0, 4))
        keys = draw(st.lists(st.sampled_from(list(combinations(range(1, 5), p))),
                             max_size=3, unique=True))
        return f(c4, p, {k: draw(coefficients) for k in keys})

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(forms(), forms())
    def check(a, b):
        assert ext_d(ext_d(a)).is_zero
        sign = -1 if a.degree % 2 else 1
        assert ext_d(a.wedge(b)) == ext_d(a).wedge(b) + a.wedge(ext_d(b)).scale(sign)
        if all(c.is_constant for c in a.coeffs.values()):
            assert ext_d(a).is_zero
        if a.degree == 0:
            fa = a.coeffs.get((), zero)
            assert ext_d(a) == f(c4, 1, {(i,): fa.partial(i) for i in range(1, 5)})

    check()


def _rand_quotient(rng, dim):
    den = rand_poly(rng, dim)
    while not den:
        den = rand_poly(rng, dim)
    return rand_poly(rng, dim) / den


@pytest.mark.parametrize("seed", range(6))
def test_ext_d_matches_the_all_variables_reference_on_quotients(seed, monkeypatch):
    """ext_d differentiates a quotient coefficient by ``RationalExpr.partial``
    only in the variables of its numerator and denominator outside its
    index, a polynomial coefficient (denominator 1) by no ``partial`` call,
    and agrees with the reference that differentiates in every variable; x2
    in 1/x2 and x3 in (x1 + 1)/(x3 - 2) occur only in a denominator."""
    rng = random.Random(1800 + seed)
    c4 = chart(4)
    fixed = [f(c4, 1, {(1,): "1/x2", (3,): "x1/(x2*x4 + 1)"}),
             f(c4, 2, {(1, 3): "x3^2/x3", (2, 4): "(x1 + 1)/(x3 - 2)", (1, 2): "3/x4"}),
             f(c4, 0, {(): "x4/(x1^2 + 1)"})]
    random_forms = [f(c4, 0, {(): _rand_quotient(rng, 4)})] + [
        f(c4, p, {k: _rand_quotient(rng, 4)
                  for k in rng.sample(list(combinations(range(1, 5), p)), 2)})
        for p in (1, 2, 3)]
    partial = RationalExpr.partial
    for a in fixed + random_forms:
        taken = []
        monkeypatch.setattr(RationalExpr, "partial",
                            lambda c, i, sign=1: taken.append((id(c), i)) or partial(c, i, sign))
        got = ext_d(a)
        monkeypatch.undo()
        assert got == ext_d_all_variables(a)
        used = [(id(c), i) for idx, c in a.coeffs.items() if not c.den_is_one
                for i in range(1, 5)
                if i not in idx and any(k[i - 1] for k in [*c.num.terms, *c.den.terms])]
        assert taken == used


def test_ext_d_matches_sympy_partials():
    """The partials oracle: each coefficient of d(a) is the signed sum of
    sympy's derivatives of a's coefficients, on forms on R^4 with polynomial
    and quotient coefficients and fractional powers of the positive x1."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ch = chart(4, positive={1})
    xs = (sympy.Symbol("x1", positive=True), *sympy.symbols("x2:5"))
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exponents = st.tuples(st.sampled_from([0, 1, 2, Q(1, 2), Q(-1, 2), Q(3, 2)]),
                          *[st.integers(0, 2)] * 3)
    zero = RationalExpr.const(4, 0)
    polys = st.lists(st.tuples(fractions, exponents), min_size=1, max_size=3).map(
        lambda terms: sum((RationalExpr(ScalarExpr.monomial(4, c, e)) for c, e in terms), zero))
    coefficients = st.one_of(polys, st.tuples(polys, polys.filter(bool)).map(
        lambda nd: nd[0] / nd[1]))

    def to_sympy(r):
        def scalar(e):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * sympy.Mul(*(x ** sympy.Rational(k.numerator, k.denominator)
                                      for x, k in zip(xs, exps)))
                        for exps, c in e.terms.items()), sympy.Integer(0))
        return scalar(r.num) / scalar(r.den)

    @st.composite
    def forms(draw):
        """Every index tuple of the degree may hold a coefficient, so each
        sign of dx_i ^ dx^idx is met."""
        p = draw(st.integers(0, 3))
        return f(ch, p, {k: draw(st.one_of(st.just(zero), coefficients))
                         for k in combinations(range(1, 5), p)})

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(forms())
    def check(a):
        got, want = ext_d(a).coeffs, {}
        for idx, c in a.coeffs.items():
            for i in set(range(1, 5)).difference(idx):
                key, sign = sort_index_tuple((i,) + idx)
                want[key] = want.get(key, 0) + sign * sympy.diff(to_sympy(c), xs[i - 1])
        for key in set(want) | set(got):
            gap = want.get(key, 0) - (to_sympy(got[key]) if key in got else 0)
            assert sympy.expand(sympy.numer(sympy.together(gap))) == 0, (key, a)

    check()


def test_property_trusted_paths_return_clean_forms():
    """wedge, +, -, interior, d, pullback and ``_vector_fields`` build their
    results unchecked; each result must be what the validating constructor
    makes of its coefficients, with no zero coefficient.  x1 is positive, so
    x1^(1/2) appears in coefficients and map components alike, and in the
    fields that ``ham_vector_field`` solves and ``nondegenerate`` finds."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ch = chart(4, positive={1})
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exponents = st.tuples(st.sampled_from([0, 1, 2, Q(1, 2), Q(3, 2)]),
                          *[st.integers(0, 2)] * 3)
    zero = RationalExpr.const(4, 0)
    polys = st.lists(st.tuples(fractions, exponents), min_size=1, max_size=3).map(
        lambda terms: sum((RationalExpr(ScalarExpr.monomial(4, c, e)) for c, e in terms), zero))
    coefficients = st.one_of(
        fractions.map(lambda c: RationalExpr.const(4, c)),
        st.sampled_from([1, -1]).map(lambda c: RationalExpr.const(4, c)),
        polys,
        polys.map(lambda p: p / parse_expression("x2^2 + 1", 4)))

    @st.composite
    def tensors(draw, kind, min_degree):
        """Two tensors of one degree, so that they can be added."""
        p = draw(st.integers(min_degree, 4))
        pair = []
        for _ in range(2):
            keys = draw(st.lists(st.sampled_from(list(combinations(range(1, 5), p))),
                                 max_size=3, unique=True))
            pair.append(kind(ch, p, {k: draw(coefficients) for k in keys}))
        return pair

    # x1 goes to a positive multiple of a power of x1, so pulled-back
    # fractional powers of x1 stay rational; the rest are polynomials
    first = st.tuples(st.sampled_from([1, 4]), st.sampled_from([1, 2])).map(
        lambda ce: RationalExpr(ScalarExpr.monomial(4, ce[0], (ce[1], 0, 0, 0))))
    maps = st.tuples(first, polys, polys, polys).map(lambda comps: SmoothMap(ch, ch, comps))

    def assert_clean(r):
        assert r.coeffs == type(r)(r.chart, r.degree, dict(r.coeffs)).coeffs
        assert all(r.coeffs.values())
        assert all(ScalarExpr(4, s.terms).terms == s.terms  # no zero term either
                   for c in r.coeffs.values() for s in (c.num, c.den))

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(tensors(form, 0), tensors(form, 1), tensors(multivec, 1), maps,
                      st.lists(coefficients, min_size=5, max_size=5),
                      st.lists(coefficients.filter(bool), min_size=2, max_size=2))
    def check(ab, cd, XY, phi, vector, pq):
        (a, b), (c, _), (X, Y) = ab, cd, XY
        results = [a.wedge(b), a.wedge(c), c.wedge(c), a + b, a + (-a), a - b, b - b, -a,
                   ext_d(a), X + Y, X - X, X.wedge(Y), pullback(phi, a)]
        if X.degree <= a.degree:
            results.append(interior(X, a))
        w = f(ch, 2, {(1, 2): pq[0], (3, 4): pq[1]})  # nondegenerate: pq[0], pq[1] != 0
        results += [*exterior._vector_fields(ch, [vector[:4], [zero] * 4]),
                    ham_vector_field(w, f(ch, 0, {(): vector[4]}))]
        if c.degree >= 2:
            results += nondegenerate(c).kernel
        for r in results:
            assert_clean(r)

    check()


# -- interior product ----------------------------------------------------------


def test_interior_sign_by_position():
    w = f(C3, 3, {(1, 2, 3): 1})
    assert interior(coordinate_vector(C3, 2), w) == f(C3, 2, {(1, 3): -1})


def test_interior_inverted_order_convention():
    w = f(C3, 3, {(1, 2, 3): 1})
    x12 = multivec(C3, 2, {(1, 2): 1})
    assert interior(x12, w) == f(C3, 1, {(3,): 1})
    e1, e2 = coordinate_vector(C3, 1), coordinate_vector(C3, 2)
    assert interior(x12, w) == interior(e2, interior(e1, w))


def test_interior_invariant_bivector_worked_values():
    omega = f(C6, 6, {tuple(range(1, 7)): parse_expression("2*x2^(1/2)", 6)})
    xi = multivec(C6, 2, {
        (3, 6): parse_expression("1/8*x2^(-1)", 6),
        (4, 5): parse_expression("1/8*x2^(-2)", 6),
    })
    expected = f(C6, 4, {
        (1, 2, 4, 5): parse_expression("1/4*x2^(-1/2)", 6),
        (1, 2, 3, 6): parse_expression("1/4*x2^(-3/2)", 6),
    })
    assert interior(xi, omega) == expected
    twice = interior(xi, interior(xi, omega))
    assert twice == f(C6, 2, {(1, 2): parse_expression("1/16*x2^(-5/2)", 6)})


def test_interior_degree_error():
    with pytest.raises(DegreeError):
        interior(multivec(C3, 2, {(1, 2): 1}), basis_one_form(C3, 1))


def test_sum_across_degrees():
    """A zero form of another degree adds as the identity, on either side;
    two nonzero forms of different degrees are a DegreeError."""
    one, two = basis_one_form(C3, 1), form(C3, 2, {(1, 2): "x3"})
    zero_two = form(C3, 2, {})
    assert one + zero_two == one and zero_two + one == one
    with pytest.raises(DegreeError):
        one + two


@pytest.mark.parametrize("seed", range(5))
def test_interior_decomposable_and_nilpotent(seed):
    rng = random.Random(70 + seed)
    c5 = chart(5)
    a = rand_form(rng, c5, rng.randint(2, 4))
    u = rand_vector_field(rng, c5)
    v = rand_vector_field(rng, c5)
    uv = MultiVec(c5, 2, {})
    for (i,), ci in u.coeffs.items():
        for (j,), cj in v.coeffs.items():
            if i == j:
                continue
            key, sgn = (i, j), 1
            if i > j:
                key, sgn = (j, i), -1
            cur = uv.coeffs.get(key)
            term = ci * cj if sgn > 0 else -(ci * cj)
            uv = uv + MultiVec(c5, 2, {key: term})
    assert interior(uv, a) == interior(v, interior(u, a))
    assert interior(u, interior(u, a)).is_zero


@pytest.mark.parametrize("seed", range(4))
def test_contraction_matrix_columns_are_interior_products(seed):
    rng = random.Random(90 + seed)
    c5 = chart(5)
    for degree in range(1, 5):
        w = rand_form(rng, c5, degree, max_terms=4)
        rows, matrix = contraction_matrix(w)
        assert rows == sorted(rows)
        for v in range(1, 6):
            column = f(c5, degree - 1, {t: row[v - 1] for t, row in zip(rows, matrix)})
            assert column == interior(coordinate_vector(c5, v), w), (degree, v)


# -- Lie derivative -------------------------------------------------------------


def test_lie_derivative_examples():
    assert lie_derivative(coordinate_vector(C3, 1), f(C3, 1, {(2,): "x1"})) == \
        f(C3, 1, {(2,): 1})
    assert lie_derivative(coordinate_vector(C3, 2), f(C3, 3, {(1, 2, 3): 1})).is_zero
    X = multivec(C3, 1, {(1,): "x1"})
    assert lie_derivative(X, basis_one_form(C3, 1)) == basis_one_form(C3, 1)


def _commutator_residual(X, Y, a):
    """[L_X, i_Y] a - i_[X,Y] a, through the interior product the module has now."""
    i = exterior.interior
    return lie_derivative(X, i(Y, a)) - i(Y, lie_derivative(X, a)) - i(vf_bracket(X, Y), a)


@pytest.mark.parametrize("seed", range(5))
def test_cartan_identity(seed):
    rng = random.Random(90 + seed)
    c4 = chart(4)
    a = rand_form(rng, c4, rng.randint(1, 3))
    X = rand_vector_field(rng, c4)
    assert lie_derivative(X, a) == interior(X, ext_d(a)) + ext_d(interior(X, a))


def test_commutator_law_catches_a_sign_flipped_interior(monkeypatch):
    """[L_X, i_Y] = i_[X,Y].  A sign-flipped interior product negates L_X and
    i_Y alike, so it leaves the commutator unchanged and negates i_[X,Y]: the
    law then fails wherever i_[X,Y] a is nonzero."""
    rng = random.Random(7)
    c4 = chart(4)
    cases = [(rand_vector_field(rng, c4), rand_vector_field(rng, c4),
              rand_form(rng, c4, rng.randint(1, 3))) for _ in range(5)]
    for X, Y, a in cases:
        assert _commutator_residual(X, Y, a).is_zero
    live = [(X, Y, a) for X, Y, a in cases if interior(vf_bracket(X, Y), a)]
    assert live
    monkeypatch.setattr(exterior, "interior", lambda V, b: -interior(V, b))
    for X, Y, a in live:
        assert not _commutator_residual(X, Y, a).is_zero


def test_lie_derivative_rejects_bivector():
    with pytest.raises(DegreeError):
        lie_derivative(multivec(C3, 2, {(1, 2): 1}), f(C3, 3, {(1, 2, 3): 1}))


# -- pullback --------------------------------------------------------------------


def test_pullback_curve():
    c1, c2 = chart(1), chart(2)
    fmap = SmoothMap(c1, c2, (parse_expression("x1", 1), parse_expression("x1^2", 1)))
    assert pullback(fmap, basis_one_form(c2, 2)) == f(c1, 1, {(1,): "2*x1"})


def test_pullback_identity():
    ident = SmoothMap.identity(C3)
    a = f(C3, 2, {(1, 2): "x3", (1, 3): "x1*x2"})
    assert pullback(ident, a) == a


def test_pullback_shear_preserves_area():
    c2 = chart(2)
    shear = SmoothMap(c2, c2, (parse_expression("x1", 2),
                               parse_expression("x2 - x1^2", 2)))
    area = f(c2, 2, {(1, 2): 1})
    assert pullback(shear, area) == area


@pytest.mark.parametrize("seed", range(4))
def test_pullback_homomorphism(seed):
    rng = random.Random(120 + seed)
    c3, c4 = chart(3), chart(4)
    comps = tuple(rand_form(rng, c3, 0).coeffs.get((), RationalExpr.const(3, 0))
                  for _ in range(4))
    fmap = SmoothMap(c3, c4, comps)
    a = rand_form(rng, c4, rng.randint(1, 2))
    b = rand_form(rng, c4, 1)
    assert pullback(fmap, wedge(a, b)) == wedge(pullback(fmap, a), pullback(fmap, b))
    assert pullback(fmap, ext_d(a)) == ext_d(pullback(fmap, a))


def test_pullback_functorial():
    rng = random.Random(7)
    c2, c3 = chart(2), chart(3)
    g = SmoothMap(c2, c3, (parse_expression("x1", 2),
                           parse_expression("x2", 2),
                           parse_expression("x1*x2", 2)))
    h = SmoothMap(c3, c3, (parse_expression("x2", 3),
                           parse_expression("x3 + x1", 3),
                           parse_expression("x1^2", 3)))
    a = rand_form(rng, c3, 2)
    composed = h.compose(g)
    assert pullback(composed, a) == pullback(g, pullback(h, a))


@pytest.mark.parametrize("seed", range(6))
def test_pullback_matches_the_all_variables_reference(seed, monkeypatch):
    """pullback differentiates each component only in the variables of its
    numerator and denominator, and takes a constant coefficient over to the
    source chart without substituting into it; it agrees with the reference
    that differentiates in every variable and substitutes into every
    coefficient.  The fixed maps cover charts of different dimension under a
    constant form, variables that occur only in a denominator (x2 in 1/x2,
    x3 in x1/(x3 + 1)) and fractional exponents on positive variables."""
    rng = random.Random(1900 + seed)
    c2, c3, c4, pos = chart(2), chart(3), chart(4), chart(3, positive={1, 2})
    cases = [
        (SmoothMap(c2, c3, ("x1*x2", "x1 + 1", "x2^3")),
         [f(c3, 2, {(1, 2): 3, (2, 3): Q(-1, 2)}), f(c3, 0, {(): 5}),
          f(c3, 3, {(1, 2, 3): 1})]),
        (SmoothMap(c3, c3, ("1/x2", "x1/(x3 + 1)", "x3")),
         [f(c3, 2, {(1, 2): 1, (1, 3): "x2"}), f(c3, 1, {(1,): "x1^2/(x2 - 1)", (3,): 2})]),
        (SmoothMap(pos, pos, ("x1^(1/2)*x2", "4*x2^(3/2)", "x3 + x1^(-1/2)")),
         [f(pos, 1, {(1,): "x1^(1/2)", (2,): "x2^(-3/2) + x3"}),
          f(pos, 2, {(1, 3): "x1^(3/2)*x2", (2, 3): -1})]),
    ]
    for maker, degrees in ((rand_poly, (1, 2, 3)), (_rand_quotient, (1,))):
        comps = []
        while len(comps) < 4:
            c = maker(rng, 4)
            comps += [] if c.is_constant else [c]
        cases.append((SmoothMap(c4, c4, comps), [
            f(c4, p, {k: rng.choice([rand_poly(rng, 4), RationalExpr.const(4, rand_fraction(rng))])
                      for k in rng.sample(list(combinations(range(1, 5), p)), 2)})
            for p in degrees] + [f(c4, 0, {(): rand_poly(rng, 4)}),
                                 f(c4, 4, {(1, 2, 3, 4): Q(2, 3)})]))
    partial, substitute = RationalExpr.partial, RationalExpr.substitute
    for fmap, forms in cases:
        for a in forms:
            taken, substituted = [], []
            monkeypatch.setattr(RationalExpr, "partial",
                                lambda c, i, sign=1: taken.append((c, i)) or partial(c, i, sign))
            monkeypatch.setattr(RationalExpr, "substitute",
                                lambda c, comps: substituted.append(c) or substitute(c, comps))
            got = pullback(fmap, a)
            monkeypatch.undo()
            assert got.chart == fmap.source
            assert got == pullback_all_variables(fmap, a)
            assert all(i in c.used_vars() for c, i in taken)
            assert {i for c, i in taken if c is fmap.components[0]} == \
                fmap.components[0].used_vars()
            assert not any(c.is_constant for c in substituted)


def test_property_pullback_along_coordinate_components(monkeypatch):
    """Along maps some of whose components are exactly a coordinate x_s,
    pullback agrees with the all-variables reference, and no wedge
    multiplies by a constant +-1: the int 1 kept for dx_s (and for any
    partial that is 1, as d(x3 + x1^2) has in x3) only moves indices.  A
    constant form along a map of coordinates makes no product at all."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from plectic import exterior

    def polys(dim):
        exps = st.tuples(*[st.integers(0, 2)] * dim)
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        return st.dictionaries(exps, coeffs, min_size=1, max_size=3).map(
            lambda t: RationalExpr(ScalarExpr(dim, t)))

    @st.composite
    def cases(draw):
        src, tgt = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        comps = [draw(st.one_of(st.integers(1, src).map(lambda s: RationalExpr.variable(src, s)),
                                polys(src)))
                 for _ in range(tgt)]
        p = draw(st.integers(0, tgt))
        keys = draw(st.lists(st.sampled_from(list(combinations(range(1, tgt + 1), p))),
                             min_size=1, max_size=3, unique=True))
        coeffs = {k: draw(st.one_of(st.sampled_from([1, -1, Q(2, 3)]), polys(tgt))) for k in keys}
        return SmoothMap(chart(src), chart(tgt), comps), form(chart(tgt), p, coeffs)

    def is_unit(c):
        return c.is_constant and c.constant_value() in (1, -1)

    products = []
    signed_product = exterior._signed_product
    monkeypatch.setattr(exterior, "_signed_product",
                        lambda a, b, sign: products.append((a, b)) or signed_product(a, b, sign))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    @hypothesis.example((SmoothMap(chart(4), chart(3), ("x3 + x1^2", "x1", "x4")),
                         f(chart(3), 2, {(1, 2): 1, (2, 3): "x1"})))
    def check(case):
        fmap, a = case
        want = pullback_all_variables(fmap, a)
        products.clear()
        got = pullback(fmap, a)
        assert got == want and got.chart == fmap.source and got.degree == want.degree
        assert not any(is_unit(x) or is_unit(y) for x, y in products)

    check()
    monkeypatch.undo()
    coordinates = SmoothMap(chart(4), chart(4), ("x3", "x1", "x4", "x1"))
    for a in (f(chart(4), 2, {(1, 2): 1, (2, 3): -1, (1, 4): Q(5, 2)}),
              f(chart(4), 3, {(1, 2, 3): -2, (1, 3, 4): 1})):
        want = pullback_all_variables(coordinates, a)
        calls = []
        general = RationalExpr.__mul__
        monkeypatch.setattr(RationalExpr, "__mul__",
                            lambda x, y: calls.append(1) or general(x, y))
        got = pullback(coordinates, a)
        monkeypatch.undo()
        assert got == want and not calls


def test_pullback_carries_wedge_signs_instead_of_negating(monkeypatch):
    """Re(dz1^dz2^dz3) pulled back along each realified shear of a seeded
    n = 3 move is itself, with fewer coefficient negations than the 10
    (rest_by_first) and 13 (first_by_last) made when every odd move of dx_s
    negated its block coefficient."""
    from plectic import mover
    from plectic.catalog import complex_volume_re
    rng = random.Random(4401)
    src = []
    while len(src) < 3:
        p = tuple(GaussianRational(Q(rng.randint(-3, 3), rng.choice([1, 2])),
                                   Q(rng.randint(-3, 3), rng.choice([1, 2]))) for _ in range(3))
        if p not in src:
            src.append(p)
    vol = complex_volume_re(3)
    negations = []
    neg = RationalExpr.__neg__
    monkeypatch.setattr(RationalExpr, "__neg__", lambda x: negations.append(1) or neg(x))
    counts = {}
    for step in mover._normalizing_auto(src, 3).steps:
        if not isinstance(step, mover.ShearStep):
            continue
        negations.clear()
        got = pullback(mover.realify_step(step, 3), vol)
        counts[step.kind] = len(negations)
        assert got == vol
    assert counts["rest_by_first"] <= 4 and counts["first_by_last"] <= 1


def test_constant_linear_pullback_matches_map_pullback():
    c6 = chart(6)
    w = f(c6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})
    rng = random.Random(3)
    M = [[Q(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
    M[0][0] += Q(3)  # keep it invertible often enough for the test
    comps = tuple(
        sum((RationalExpr.variable(6, j + 1) * RationalExpr.const(6, M[i][j])
             for j in range(1, 6)),
            RationalExpr.variable(6, 1) * RationalExpr.const(6, M[i][0]))
        for i in range(6)
    )
    fmap = SmoothMap(c6, c6, comps)
    assert constant_linear_pullback(w, M) == pullback(fmap, w)


@pytest.mark.parametrize("seed", range(3))
def test_constant_linear_pullback_clears_denominators(seed):
    rng = random.Random(900 + seed)
    c6, c8 = chart(6), chart(8)
    M6, M8 = rand_rational_gl(rng, 6), rand_rational_gl(rng, 8)
    assert any(v.denominator > 1 for row in M6 + M8 for v in row)
    w6 = f(c6, 3, {(1, 2, 3): Q(1, 2), (1, 4, 6): -3, (2, 5, 6): Q(2, 7)})
    assert constant_linear_pullback(w6, M6) == pullback(linear_map(c6, M6), w6)
    w8 = symplectic_power(4, 2)  # 4x4 minors: linalg.det eliminates their ints
    assert constant_linear_pullback(w8, M8) == pullback(linear_map(c8, M8), w8)
    h = function_form(c6, "3/2")
    assert constant_linear_pullback(h, M6) == pullback(linear_map(c6, M6), h) == h
    # a Gaussian coefficient is cleared to a Gaussian integer, not to an int
    g6 = f(c6, 3, {(1, 2, 3): GaussianRational(Q(1, 3)),
                   (1, 4, 6): GaussianRational(Q(1, 2), Q(-2, 5)), (2, 5, 6): Q(2, 7)})
    assert constant_linear_pullback(g6, M6) == pullback(linear_map(c6, M6), g6)


@pytest.mark.parametrize("seed", range(3))
def test_constant_linear_pullback_reads_int_entries_as_they_are(seed):
    """An int matrix and the same matrix in Fraction entries pull back alike."""
    rng = random.Random(1700 + seed)
    c6 = chart(6)
    M = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)]
    for w in (product6(), f(c6, 3, {(1, 2, 3): Q(1, 2), (2, 4, 6): GaussianRational(1, 3),
                                    (3, 5, 6): -2})):
        ints = constant_linear_pullback(w, M)
        fracs = constant_linear_pullback(w, [[Q(v) for v in row] for row in M])
        assert ints == fracs and str(ints) == str(fracs)


def test_constant_linear_pullback_matches_sympy_minors():
    """The pullback along x -> M x is sum_I c_I sum_K det(M[I][K]) dx^K;
    the 3x3 minors here come from sympy, for coefficients of mixed
    denominators and a rational M."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1400)
    c6 = chart(6)
    tuples = list(combinations(range(1, 7), 3))
    for _ in range(4):
        M = rand_rational_gl(rng, 6)
        coeffs = {I: Q(rng.choice([-9, -4, -1, 1, 2, 5]), rng.choice([1, 2, 3, 5, 7, 12]))
                  for I in rng.sample(tuples, 5)}
        assert len({c.denominator for c in coeffs.values()}) > 1
        S = sympy.Matrix(6, 6, lambda i, j: sympy.Rational(M[i][j].numerator,
                                                           M[i][j].denominator))
        want = {}
        for K in tuples:
            total = sum(sympy.Rational(c.numerator, c.denominator)
                        * S.extract([i - 1 for i in I], [k - 1 for k in K]).det()
                        for I, c in coeffs.items())
            if total != 0:
                want[K] = Q(int(total.p), int(total.q))
        got = constant_linear_pullback(f(c6, 3, coeffs), M)
        assert {K: c.constant_value() for K, c in got.coeffs.items()} == want


def _three_form_along(wv, P):
    """w(P., P., P.) by the six signed terms per coefficient: the reference
    loop the float split used before it called ``_minor_sums``."""
    out = {}
    for K in combinations(range(1, 7), 3):
        i, j, k = (x - 1 for x in K)
        total = 0
        for (a, b, c), cv in wv.items():
            acc = 0
            for pa, pb, pc in ((a, b, c), (b, c, a), (c, a, b)):
                acc += P[pa - 1][i] * P[pb - 1][j] * P[pc - 1][k]
            for pa, pb, pc in ((b, a, c), (a, c, b), (c, b, a)):
                acc -= P[pa - 1][i] * P[pb - 1][j] * P[pc - 1][k]
            total += cv * acc
        out[K] = total
    return out


@pytest.mark.parametrize("seed", range(4))
def test_float_minor_sums_match_the_six_term_reference(seed):
    """Exact rows: seeds 0-1 over Fraction, seeds 2-3 over int (the ring of
    ``constant_linear_pullback``)."""
    rng = random.Random(1300 + seed)
    zero = Q(0) if seed < 2 else 0
    P = [[Q(rng.randint(-9, 9), rng.randint(1, 5)) if seed < 2 else rng.randint(-4, 4)
          for _ in range(6)] for _ in range(6)]
    tuples = list(combinations(range(1, 7), 3))
    wv = {I: zero + rng.choice([-3, -1, 1, 2]) for I in rng.sample(tuples, 5)}
    got = _minor_sums(wv, P, 6, 3, zero)
    want = _three_form_along(wv, P)
    assert got == {K: v for K, v in want.items() if v}


def test_property_minor_sums_match_the_det_of_each_submatrix():
    """The Laplace-plan minor sums equal a sum of ``linalg.det`` over every
    (I, K) submatrix, for int, Fraction and GaussianRational coefficients
    and entries (each ring drawn on its own), columns 1..6 and every degree
    up to the column count; entries are often zero, so skipped products are
    exercised."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rings = {"int": st.integers(-3, 3), "Fraction": fractions,
             "GaussianRational": st.builds(GaussianRational, fractions, fractions)}
    zeros = {"int": 0, "Fraction": Q(0), "GaussianRational": GaussianRational(0)}

    @st.composite
    def cases(draw):
        dim = draw(st.integers(1, 6))
        deg = draw(st.integers(1, dim))
        rows = draw(st.integers(deg, 6))
        entries = rings[draw(st.sampled_from(sorted(rings)))]
        entry = st.one_of(st.just(0), entries)
        M = [[draw(entry) for _ in range(dim)] for _ in range(rows)]
        ring = draw(st.sampled_from(sorted(rings)))
        keys = draw(st.lists(st.sampled_from(list(combinations(range(1, rows + 1), deg))),
                             min_size=1, max_size=6, unique=True))
        return {I: draw(rings[ring]) for I in keys}, M, dim, deg, zeros[ring]

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        assert _minor_sums(*case) == det_minor_sums(*case)

    check()


def test_minor_sums_over_the_transposed_jacobian_push_multivectors():
    c2, c3 = chart(2), chart(3)
    fmap = SmoothMap(c2, c3, (parse_expression("x1", 2), parse_expression("x2^2", 2),
                              parse_expression("x1*x2", 2)))
    jac_t = list(zip(*fmap.jacobian()))
    X = multivec(c2, 2, {(1, 2): "x1"})
    pushed = _minor_sums(X.coeffs, jac_t, 3, 2, RationalExpr.const(2, 0))
    assert pushed == {(1, 2): parse_expression("2*x1*x2", 2),
                      (1, 3): parse_expression("x1^2", 2),
                      (2, 3): parse_expression("-2*x1*x2^2", 2)}
    for p in ([1, 2], [Q(-1, 3), 5]):
        at = pushforward_at(fmap, X, p)
        assert at.coeffs == {K: RationalExpr.const(3, v.eval(p)) for K, v in pushed.items()}


# -- pushforward ------------------------------------------------------------------


def test_pushforward_identity_is_evaluation():
    X = multivec(C3, 1, {(1,): "x2"})
    out = pushforward_at(SmoothMap.identity(C3), X, [1, 5, 0])
    assert out == multivec(C3, 1, {(1,): 5})


def test_pushforward_reflection():
    c1, c2 = chart(1), chart(2)
    fmap = SmoothMap(c1, c2, (parse_expression("0 - x1", 1),
                              parse_expression("0", 1)))
    out = pushforward_at(fmap, coordinate_vector(c1, 1), [Q(3, 2)])
    assert out == multivec(c2, 1, {(1,): -1})


def test_pushforward_lambda2_oracle():
    # oracle: explicit 2x2 minors of the Jacobian [[1,0],[0,1],[t2,t1]] at (1,2)
    c2, c3 = chart(2), chart(3)
    fmap = SmoothMap(c2, c3, (parse_expression("x1", 2),
                              parse_expression("x2", 2),
                              parse_expression("x1*x2", 2)))
    X = multivec(c2, 2, {(1, 2): 1})
    jac = [[Q(1), Q(0)], [Q(0), Q(1)], [Q(2), Q(1)]]
    expected = {}
    for (r1, r2) in combinations(range(3), 2):
        minor = jac[r1][0] * jac[r2][1] - jac[r1][1] * jac[r2][0]
        if minor:
            expected[(r1 + 1, r2 + 1)] = minor
    out = pushforward_at(fmap, X, [1, 2])
    assert out == multivec(c3, 2, expected)
    assert expected == {(1, 2): 1, (1, 3): 1, (2, 3): -2}


def test_pushforward_checks_positivity():
    c = chart(2, positive={1})
    with pytest.raises(DomainViolation):
        pushforward_at(SmoothMap.identity(c), coordinate_vector(c, 1), [-1, 0])


# -- homotopy operator ---------------------------------------------------------------


def test_homotopy_basic():
    assert poincare_homotopy(basis_one_form(C3, 1)) == function_form(C3, "x1")
    h = poincare_homotopy(f(C3, 2, {(1, 2): 1}))
    assert h == f(C3, 1, {(2,): "1/2*x1", (1,): "-1/2*x2"})


def test_homotopy_identity_on_closed():
    a = f(C3, 2, {(1, 2): 1})
    assert ext_d(poincare_homotopy(a)) == a


@pytest.mark.parametrize("seed", range(6))
def test_homotopy_identity_random(seed):
    rng = random.Random(150 + seed)
    c4 = chart(4)
    k = rng.randint(1, 3)
    a = rand_form(rng, c4, k)
    h = poincare_homotopy
    assert ext_d(h(a)) + h(ext_d(a)) == a


def test_homotopy_pole():
    c1 = chart(1, positive={1})
    a = form(c1, 1, {(1,): parse_expression("x1^(-1)", 1)})
    with pytest.raises(HomotopyPole):
        poincare_homotopy(a)


def test_homotopy_fractional_exponents():
    a = form(C6, 1, {(2,): parse_expression("x2^(-1/2)", 6)})
    h = poincare_homotopy(a)
    assert ext_d(h) + poincare_homotopy(ext_d(a)) == a


# -- misc ------------------------------------------------------------------------


def test_vf_bracket():
    X = coordinate_vector(C3, 1)
    Y = multivec(C3, 1, {(2,): 1, (3,): "x1"})
    assert vf_bracket(X, Y) == multivec(C3, 1, {(3,): 1})


def test_contraction_solve_roundtrip():
    omega = f(C6, 6, {tuple(range(1, 7)): parse_expression("2*x2^(1/2)", 6)})
    beta = f(C6, 4, {
        (1, 2, 4, 5): parse_expression("1/4*x2^(-1/2)", 6),
        (1, 2, 3, 6): parse_expression("1/4*x2^(-3/2)", 6),
    })
    xi = contraction_solve(omega, beta, 2)
    assert xi == multivec(C6, 2, {
        (3, 6): parse_expression("1/8*x2^(-1)", 6),
        (4, 5): parse_expression("1/8*x2^(-2)", 6),
    })


def test_product_chart_projection_lift():
    c3a, c3b = chart(3), chart(3)
    prod = product_chart(c3a, c3b)
    p1 = projection(prod, c3a, 0)
    p2 = projection(prod, c3b, 3)
    w = pullback(p1, f(c3a, 3, {(1, 2, 3): 1})) + pullback(p2, f(c3b, 3, {(1, 2, 3): 1}))
    assert w == form(prod, 3, {(1, 2, 3): 1, (4, 5, 6): 1})


def test_fractional_exponent_needs_positivity_flag():
    plain = chart(6)
    with pytest.raises(DomainViolation):
        form(plain, 1, {(1,): parse_expression("x2^(1/2)", 6)})


def test_pullback_rejects_a_fractional_component_off_the_positive_set():
    plain = chart(2)
    root = SmoothMap(plain, chart(2, positive={1}), ("x1^(1/2)", "x2"))
    for a in (f(root.target, 2, {(1, 2): 1}), f(root.target, 0, {(): 1})):
        with pytest.raises(DomainViolation):
            pullback(root, a)


def test_pullback_rejects_a_fractional_coefficient_pulled_off_the_positive_set():
    # x1^(1/2) is licensed on the target; pulled back it is (x1*x2)^(1/2)
    plain = chart(2)
    target = chart(2, positive={1})
    prod = SmoothMap(plain, target, ("x1*x2", "x2"))
    for a in (f(target, 1, {(1,): "x1^(1/2)"}), f(target, 0, {(): "x1^(1/2)"}),
              f(target, 2, {(1, 2): "x1^(1/2)"})):
        with pytest.raises(DomainViolation):
            pullback(prod, a)


def test_forms_hash_by_coefficient_values():
    # regression: the hash read only the index tuples, so every w^f collided
    ch = omega_f("1").chart
    w = form(ch, 3, {(1, 2, 3): 1, (4, 5, 6): 1})
    family = [omega_f(f) for f in ("1", "x2", "x2^(1/2)", "1/x2", "x2^2", "x2^2+1", "-1", "-x2")]
    assert len({hash(a) for a in [w, w.scale(2)] + family}) == 10


def test_zero_forms_of_any_degree_hash_equal():
    # regression: zero forms of degrees 1 and 2 compared equal, hashed apart
    z1, z2 = form(C3, 1, {}), form(C3, 2, {})
    assert z1 == z2
    assert hash(z1) == hash(z2)
    w = form(C6, 3, {(1, 2, 3): 1, (4, 5, 6): "x2"})
    assert len({hash(form(C6, k, {})) for k in range(7)} | {hash(w - w)}) == 1
    assert len({z1, z2, form(C3, 1, {(1,): 1}) - form(C3, 1, {(1,): 1})}) == 1
    a = form(C3, 1, {(1,): parse_expression("x1^2/x1", 3)})
    b = form(C3, 1, {(1,): parse_expression("x1", 3)})
    assert a == b and hash(a) == hash(b)
    assert form(C3, 1, {(1,): 1}) != form(C3, 2, {(1, 2): 1})
