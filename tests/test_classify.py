import random
from fractions import Fraction as Q
from itertools import combinations
from math import prod

import pytest

from plectic import catalog, classify, linalg
from plectic.classify import (
    _J_PLAN,
    _trace_sq,
    _volume_times_j,
    COMPLEX,
    DEGENERATE,
    FLAT,
    NONCONSTANT,
    NONFLAT,
    PRODUCT,
    TANGENT,
    UNDETERMINED,
    EndField,
    SignReport,
    TypeReport,
    classify6,
    extract_acs,
    flatness_report,
    hitchin_endomorphism,
    involutive,
    nijenhuis,
    nondegenerate,
    sign_on_chart,
    split_product,
    standard_volume,
    verify_standard_subspace,
)
from plectic.errors import (
    DependentFrame,
    DomainViolation,
    IrrationalScale,
    IrrationalValue,
    NotAlmostComplex,
    NotClosed,
    PlecticError,
    ShapeError,
    WrongType,
)
from plectic.exterior import (
    chart,
    constant_linear_pullback,
    coordinate_vector,
    ext_d,
    form,
    interior,
    pullback,
    SmoothMap,
    vf_bracket,
    wedge,
)
from plectic.hdw import multiphase_forms
from plectic.linalg import det
from plectic.scalar import GaussianRational, RationalExpr, ScalarExpr, parse_expression
from conjugate_reference import reference_classify6
from hitchin_reference import reference_volume_times_j
from util import multivec, rand_form, rand_poly, rand_rational_gl

C6 = chart(6)
HALF = catalog.half_space6()
ORIGIN6 = [0] * 6


# -- non-degeneracy -------------------------------------------------------------


def test_g2_form_nondegenerate():
    assert nondegenerate(catalog.g2_form(), [0] * 7)
    assert nondegenerate(catalog.g2_form())


def test_s6_pole_form_nondegenerate():
    assert nondegenerate(catalog.s6_pole_form(), ORIGIN6)


def test_degenerate_form_kernel():
    rep = nondegenerate(form(C6, 3, {(1, 2, 3): 1}), ORIGIN6)
    assert not rep
    assert set(tuple(k.coeffs) for k in rep.kernel) == {((4,),), ((5,),), ((6,),)}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_symplectic_powers_nondegenerate(m):
    for j in range(1, m + 1):
        assert nondegenerate(catalog.symplectic_power(m, j))


# -- endomorphism extraction ------------------------------------------------------


def test_hitchin_matrix_for_family():
    w = catalog.omega_f("x2")
    J = hitchin_endomorphism(w, standard_volume(HALF))
    f = parse_expression("x2", 6)
    two = RationalExpr.const(6, 2)
    expected = [
        [0, -(two * f), 0, 0, 0, 0],
        [-2, 0, 0, 0, 0, 0],
        [0, 0, 0, -(two * f), 0, 0],
        [0, 0, -2, 0, 0, 0],
        [0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, two * f, 0],
    ]
    for i in range(6):
        for j in range(6):
            assert J.matrix[i][j] == expected[i][j], (i, j)
    assert J.square().trace() == parse_expression("24*x2", 6)


def test_hitchin_product_form():
    J = hitchin_endomorphism(catalog.product6(), standard_volume(C6))
    for i in range(6):
        for j in range(6):
            want = 0 if i != j else (1 if i < 3 else -1)
            assert J.matrix[i][j] == want
    assert J.square().trace() == 6


def test_hitchin_degenerate_gives_zero():
    J = hitchin_endomorphism(form(C6, 3, {(1, 2, 3): 1}), standard_volume(C6))
    assert all(not J.matrix[i][j] for i in range(6) for j in range(6))


@pytest.mark.parametrize("seed", range(6))
def test_hitchin_defining_identity_under_a_nonconstant_volume(seed):
    rng = random.Random(900 + seed)
    vol = form(C6, 6, {tuple(range(1, 7)): "x1^2+1"})
    w = rand_form(rng, C6, 3, max_terms=6)
    J = hitchin_endomorphism(w, vol)
    for i in range(1, 7):
        lhs = wedge(interior(coordinate_vector(C6, i), w), w)
        assert lhs == interior(J.column_field(i), vol), i


TRIPLES6 = list(combinations(range(1, 7), 3))


def test_property_volume_times_j_is_the_reference_loop():
    """The pair plan gives g*J entry by entry equal to the column-by-column
    loop of ``hitchin_reference``, over int, Fraction and RationalExpr
    coefficients (quotients and powers of the positive x1 among them), with
    zero values present as classify6's cleared values can have them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    zero = RationalExpr.const(6, 0)
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    exponents = st.tuples(st.sampled_from([0, 1, 2, Q(1, 2), Q(-1, 2), Q(3, 2)]),
                          st.integers(0, 2), st.just(0), st.integers(0, 1), *[st.just(0)] * 2)
    polys = st.lists(st.tuples(fractions, exponents), min_size=1, max_size=2).map(
        lambda terms: sum((RationalExpr(ScalarExpr.monomial(6, c, e)) for c, e in terms), zero))
    quotients = st.tuples(polys, polys.filter(bool)).map(lambda nd: nd[0] / nd[1])
    rings = [(st.integers(-3, 3), 0), (fractions, Q(0)), (st.one_of(polys, quotients), zero)]

    @st.composite
    def cases(draw):
        values, ring_zero = draw(st.sampled_from(rings))
        triples = draw(st.lists(st.sampled_from(TRIPLES6), unique=True,
                                max_size=8 if ring_zero is zero else 20))
        return {t: draw(values) for t in triples}, ring_zero

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        coeffs, ring_zero = case
        got = _volume_times_j(coeffs, ring_zero)
        want = reference_volume_times_j(coeffs, ring_zero)
        for i in range(6):
            for j in range(6):
                assert got[i][j] == want[i][j], (i, j, coeffs)

    check()


def test_volume_times_j_forms_each_product_once():
    """A full 3-form meets 100 unordered pairs of index triples in g*J: the
    plan forms 100 products where the column loop forms 240."""
    class Counted(int):
        products = 0

        def __mul__(self, other):
            Counted.products += 1
            return int(self) * int(other)
        __rmul__ = __mul__

        def __neg__(self):
            return Counted(-int(self))

    coeffs = {t: Counted(n + 1) for n, t in enumerate(TRIPLES6)}
    got = _volume_times_j(coeffs, 0)
    assert Counted.products == 100 == sum(len(partners) for _a, partners in _J_PLAN)
    Counted.products = 0
    assert got == reference_volume_times_j(coeffs, 0) and Counted.products == 240


def test_hitchin_endomorphism_prints_the_same_in_any_term_order():
    """J sums each cell in the plan's order, not the form's: the column loop
    printed two entries of this J differently for its two term orders."""
    terms = [((2, 5, 6), "1/(x3^2+1)"), ((3, 4, 6), "1/(x1+1)"), ((3, 5, 6), -2),
             ((2, 4, 6), "1/(x3^2+1)")]
    vol = standard_volume(C6)
    printed = [[[str(v) for v in row] for row in hitchin_endomorphism(w, vol).matrix]
               for w in (form(C6, 3, dict(terms)), form(C6, 3, dict(terms[::-1])))]
    assert printed[0] == printed[1]


def _dense_square(J: EndField):
    """Rows of J^2 with every entry the sum of all d products, from zero."""
    d = J.chart.dim
    zero = RationalExpr.const(d, 0)
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = zero
            for k in range(d):
                acc = acc + J.matrix[i][k] * J.matrix[k][j]
            row.append(acc)
        rows.append(row)
    return rows


def _trace_forms():
    """(name, form, volume coefficient): the w^f family, the normal forms,
    random rational conjugates and forms with quotient coefficients."""
    out = [(f"f={f}", catalog.omega_f(f), "1")
           for f in ("1", "x2", "x2^(1/2)", "1/x2", "x2^2", "x2^2+1", "-1", "-x2",
                     "2", "3*x2^2+5", "x2^(1/2)+1", "(7*x2-5)^2-1/100", "x2/(x2+1)")]
    out += [(name, getattr(catalog, name)(), "1")
            for name in ("product6", "complex6", "tangent6", "s6_pole_form")]
    rng = random.Random(1200)
    for t in range(6):
        w = (catalog.product6(), catalog.complex6(), catalog.tangent6())[t % 3]
        moved = constant_linear_pullback(w, rand_rational_gl(rng, 6))
        out.append((f"conjugate{t}", moved, "1"))
    quotient = form(C6, 3, {(1, 2, 3): "1/(x1^2+1)", (4, 5, 6): "x4/(x5^2+1)",
                            (1, 4, 6): 1})
    # summed over all pairs at once, this trace would print differently
    mixed = form(C6, 3, {(1, 2, 3): 1, (3, 5, 6): -1, (1, 3, 4): -2, (1, 2, 4): "1/(x4+2)",
                         (4, 5, 6): "x4/(x4^2+1)", (2, 3, 5): "x5/(x5^2+1)"})
    out += [("quotient", quotient, "1"), ("quotient, (x1^2+1) vol", quotient, "x1^2+1"),
            ("x2, (x1^2+1) vol", catalog.omega_f("x2", C6), "x1^2+1"),
            ("mixed denominators", mixed, "1")]
    return out


TRACE_FORMS = _trace_forms()


@pytest.mark.parametrize("name,w,g", TRACE_FORMS, ids=[n for n, _w, _g in TRACE_FORMS])
def test_trace_sq_and_square_print_as_the_dense_square(name, w, g):
    J = hitchin_endomorphism(w, form(w.chart, 6, {tuple(range(1, 7)): g}))
    dense = _dense_square(J)
    trace = RationalExpr.const(6, 0)
    for i in range(6):
        trace = trace + dense[i][i]
    got = _trace_sq(J.matrix, RationalExpr.const(6, 0))
    assert got == trace and str(got) == str(trace)
    assert got == J.square().trace() and str(got) == str(J.square().trace())
    square = J.square()
    assert [[str(v) for v in row] for row in square.matrix] == \
        [[str(v) for v in row] for row in dense]


def test_trace_sq_over_int_and_float_rows():
    rows = [[0, 2, 0], [3, 1, 0], [0, 0, -1]]
    assert _trace_sq(rows, 0) == 2 * 3 + 3 * 2 + 1 + 1
    fractions = [[Q(v, 3) for v in row] for row in rows]
    assert _trace_sq(fractions, Q(0)) == Q(14, 9)


def test_acs_squares_print_as_the_dense_square():
    for m in (3, 4):
        J = extract_acs(catalog.complex_volume_re(m))
        assert [[str(v) for v in row] for row in J.square().matrix] == \
            [[str(v) for v in row] for row in _dense_square(J)]


# -- classification ----------------------------------------------------------------


def test_classify_trichotomy():
    assert classify6(catalog.product6(), ORIGIN6).linear_type == PRODUCT
    assert classify6(catalog.complex6(), ORIGIN6).linear_type == COMPLEX
    assert classify6(catalog.tangent6(), ORIGIN6).linear_type == TANGENT
    assert classify6(form(C6, 3, {(1, 2, 3): 1}), ORIGIN6).linear_type == DEGENERATE
    # dx1 ^ (dx23 + dx45) is degenerate (kernel e6), but its J is not zero
    rank_one = form(C6, 3, {(1, 2, 3): 1, (1, 4, 5): 1})
    for w in (rank_one, constant_linear_pullback(rank_one, rand_gl6(random.Random(1600)))):
        J = hitchin_endomorphism(w, standard_volume(C6))
        assert any(v for row in J.matrix for v in row)
        assert classify6(w, ORIGIN6).linear_type == DEGENERATE


def test_classify_requires_closed():
    w = form(C6, 3, {(1, 2, 3): "x4"})
    with pytest.raises(NotClosed):
        classify6(w, ORIGIN6)


@pytest.mark.parametrize("w,point,error", [
    (form(chart(6), 2, {(1, 2): 1, (3, 4): Q(1, 2)}), ORIGIN6, ShapeError),
    (form(chart(7), 3, {(1, 2, 3): 1, (4, 5, 6): 1}), [0] * 7, ShapeError),
    (form(C6, 3, {(1, 2, 3): GaussianRational(1, 1), (4, 5, 6): 1}), ORIGIN6, ShapeError),
    (catalog.product6(), [0] * 5, ShapeError),
    (form(catalog.half_space6(), 3, {(1, 2, 3): 1, (4, 5, 6): -2}), ORIGIN6, DomainViolation),
    (form(catalog.half_space6(), 3, {(1, 2, 3): 1}), [1, Q(-1, 2), 0, 0, 0, 0],
     DomainViolation),
    (form(C6, 3, {(1, 2, 3): 1, (4, 5, 6): "x1", (1, 4, 5): Q(-3, 4)}), ORIGIN6, NotClosed),
], ids=["degree", "dim", "gaussian", "point length", "zero on a positive chart",
        "negative on a positive chart", "varying, not closed"])
def test_classify6_checks_the_form_and_the_point(w, point, error):
    """An all-constant form skips the closedness check and the evaluation,
    but not the checks of its shape, of a real value and of the point; a
    varying form is still checked for closedness."""
    with pytest.raises(error):
        classify6(w, point)


@pytest.mark.parametrize("name,w,g", TRACE_FORMS, ids=[n for n, _w, _g in TRACE_FORMS])
def test_hitchin_endomorphism_is_g_j_divided_by_g(name, w, g):
    """J, which is not divided by a unit volume coefficient, equals and
    prints as g*J divided entry by entry by g, for that volume and for
    constant volumes 2 and -3/2, whose division must still happen."""
    for g in (g, "2", "-3/2"):
        vol = form(w.chart, 6, {tuple(range(1, 7)): g})
        (gv,) = vol.coeffs.values()
        want = EndField(w.chart, [[v / gv if v else v for v in row]
                                  for row in _volume_times_j(w.coeffs, RationalExpr.const(6, 0))])
        J = hitchin_endomorphism(w, vol)
        assert J == want
        assert [[str(v) for v in row] for row in J.matrix] == \
            [[str(v) for v in row] for row in want.matrix]
        assert all(type(v) is RationalExpr for row in J.matrix for v in row)


def rand_gl6(rng):
    while True:
        M = [[Q(rng.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
        if det([row[:] for row in M]):
            return M


@pytest.mark.parametrize("seed", range(8))
def test_classification_gl_invariant(seed):
    rng = random.Random(300 + seed)
    M = rand_gl6(rng)
    for w, expected in [
        (catalog.product6(), PRODUCT),
        (catalog.complex6(), COMPLEX),
        (catalog.tangent6(), TANGENT),
    ]:
        moved = constant_linear_pullback(w, M)
        assert classify6(moved, ORIGIN6).linear_type == expected


def _outcome(f, *args):
    try:
        return f(*args)
    except PlecticError as e:
        return type(e), str(e)


def test_property_classify6_matches_the_reference():
    """classify6 gives the report (or the error, with its message) of the
    reading in ``conjugate_reference``: on all-constant forms (int, Fraction,
    real and non-real Gaussian coefficients, GL(6) conjugates of the normal
    forms among them) and on forms that mix constants with coefficients in
    x_i, closed or not, at rational points of charts with positive
    coordinates."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    constants = st.one_of(st.integers(-3, 3), rationals,
                          st.builds(GaussianRational, rationals),
                          st.builds(GaussianRational, rationals, rationals.filter(bool)))
    normal = (catalog.product6(), catalog.complex6(), catalog.tangent6())

    @st.composite
    def cases(draw):
        positive = draw(st.sets(st.integers(1, 6), max_size=2))
        if draw(st.booleans()):
            entries = st.integers(-2, 2) if draw(st.booleans()) else rationals
            w = constant_linear_pullback(draw(st.sampled_from(normal)), draw(
                st.lists(st.lists(entries, min_size=6, max_size=6), min_size=6, max_size=6)))
            coeffs = dict(w.coeffs)
        else:
            triples = draw(st.lists(st.sampled_from(TRIPLES6), unique=True, min_size=1,
                                    max_size=8))
            coeffs = {t: draw(constants) for t in triples}
        for t in draw(st.lists(st.sampled_from(TRIPLES6), unique=True, max_size=3)):
            i = draw(st.sampled_from(t + (draw(st.integers(1, 6)),)))  # i outside t: not closed
            coeffs[t] = (RationalExpr.variable(6, i) * RationalExpr.const(6, draw(rationals))
                         + draw(rationals))
        point = [draw(rationals) for _ in range(6)]
        return form(chart(6, positive), 3, coeffs), point

    paths = set()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        w, point = case
        got = _outcome(classify6, w, point)
        assert got == _outcome(reference_classify6, w, point)
        paths.add((all(c.is_constant for c in w.coeffs.values()), type(got)))

    check()
    assert {(True, TypeReport), (False, TypeReport), (True, tuple), (False, tuple)} <= paths


def _sign(q) -> str:
    return "+" if q > 0 else "-" if q < 0 else "0"


@pytest.mark.parametrize("seed", range(4))
def test_pointwise_path_on_rational_conjugates(seed):
    rng = random.Random(700 + seed)
    M = rand_rational_gl(rng, 6)
    vol = standard_volume(C6)
    for w, expected in [
        (catalog.product6(), PRODUCT),
        (catalog.complex6(), COMPLEX),
        (catalog.tangent6(), TANGENT),
    ]:
        moved = constant_linear_pullback(w, M)
        assert any(c.constant_value().denominator > 1 for c in moved.coeffs.values())
        trace = hitchin_endomorphism(moved, vol).square().trace().eval(ORIGIN6)
        report = classify6(moved, ORIGIN6)
        assert report.trace_sign == _sign(trace)
        assert report.linear_type == expected


@pytest.mark.parametrize("seed", range(4))
def test_rank_criterion_matches_nondegenerate_at_trace_zero(seed):
    """At trace(J^2) = 0, classify6 tells tangent from degenerate by the rank
    of g*J; the verdict must be that of the kernel computation.  Inputs:
    integer conjugates of tangent6, of dx123 and of dx123 + dx145 (J of rank
    1), and random sparse forms with coefficients in +-{1, 2}."""
    rng = random.Random(1500 + seed)
    forms = [constant_linear_pullback(w, rand_gl6(rng))
             for w in (catalog.tangent6(), form(C6, 3, {(1, 2, 3): 1}),
                       form(C6, 3, {(1, 2, 3): 1, (1, 4, 5): 1}))
             for _ in range(3)]
    tuples = list(combinations(range(1, 7), 3))
    while len(forms) < 60:
        w = form(C6, 3, {I: rng.choice([-2, -1, 1, 2])
                         for I in rng.sample(tuples, rng.randint(1, 6))})
        if classify6(w, ORIGIN6).trace_sign == "0":
            forms.append(w)
    vol = standard_volume(C6)
    verdicts = set()
    for w in forms:
        report = classify6(w, ORIGIN6)
        trace = hitchin_endomorphism(w, vol).square().trace().eval(ORIGIN6)
        assert report.trace_sign == _sign(trace) == "0"
        expected = TANGENT if nondegenerate(w, ORIGIN6) else DEGENERATE
        assert report.linear_type == expected
        verdicts.add(expected)
    assert verdicts == {TANGENT, DEGENERATE}


@pytest.mark.parametrize("seed", range(4))
def test_pointwise_nondegenerate_matches_symbolic_on_constant_forms(seed):
    rng = random.Random(800 + seed)
    M = rand_rational_gl(rng, 6)
    point = [1, -2, Q(3, 4), 0, 5, Q(-1, 6)]
    for w in [
        catalog.product6(),
        catalog.tangent6(),
        form(C6, 3, {(1, 2, 3): 1}),
        form(C6, 3, {(1, 2, 3): Q(1, 2), (1, 4, 5): Q(-2, 3)}),
        form(C6, 2, {(1, 2): 1, (3, 4): Q(3, 5)}),
    ]:
        moved = constant_linear_pullback(w, M)
        here, everywhere = nondegenerate(moved, point), nondegenerate(moved)
        assert bool(here) == bool(everywhere)
        assert here.kernel == everywhere.kernel


@pytest.mark.parametrize("seed", range(6))
def test_pointwise_nondegenerate_matches_the_evaluated_form(seed):
    rng = random.Random(1000 + seed)
    point = [1, -2, Q(3, 4), 0, 5, Q(-1, 6)]
    for w in [
        rand_form(rng, C6, 2, max_terms=5),
        catalog.symplectic_form(3) + rand_form(rng, C6, 2),
        rand_form(rng, C6, 3, max_terms=6),
        catalog.tangent6() + rand_form(rng, C6, 3),
        rand_form(rng, C6, 4, max_terms=6),
    ]:
        here, evaluated = nondegenerate(w, point), nondegenerate(w.eval_at(point))
        assert bool(here) == bool(evaluated)
        assert here.kernel == evaluated.kernel


@pytest.mark.parametrize("coeff", [
    GaussianRational(0, 1),
    RationalExpr.variable(6, 1) * RationalExpr.const(6, GaussianRational(0, 1)),
], ids=["constant", "evaluated"])
def test_pointwise_path_rejects_a_gaussian_coefficient(coeff):
    w = form(C6, 3, {(1, 2, 3): coeff, (4, 5, 6): 1})
    point = [1, 0, 0, 0, 0, 0]
    with pytest.raises(PlecticError):
        classify6(w, point)
    with pytest.raises(PlecticError):
        nondegenerate(w, point)


def test_pointwise_path_reads_a_real_gaussian_coefficient():
    gaussian = form(C6, 3, {(1, 2, 3): GaussianRational(2), (4, 5, 6): 1})
    plain = form(C6, 3, {(1, 2, 3): 2, (4, 5, 6): 1})
    assert classify6(gaussian, ORIGIN6) == classify6(plain, ORIGIN6)
    assert classify6(gaussian, ORIGIN6).linear_type == PRODUCT
    here, expected = nondegenerate(gaussian, ORIGIN6), nondegenerate(plain, ORIGIN6)
    assert bool(here) and bool(expected)
    assert here.kernel == expected.kernel


# -- product split ------------------------------------------------------------------


def test_split_already_split():
    w1, w2 = split_product(catalog.product6())
    assert {tuple(w1.coeffs), tuple(w2.coeffs)} == {((1, 2, 3),), ((4, 5, 6),)}
    assert w1 + w2 == catalog.product6()


def test_split_family_matches_alpha_product():
    w = catalog.omega_f("x2")
    w1, w2 = split_product(w)
    assert w1 + w2 == w
    assert wedge(w1, w1).is_zero and wedge(w2, w2).is_zero
    # dw1 is the witness computed in the worked example
    expected = form(HALF, 4, {
        (1, 2, 4, 5): parse_expression("1/4*x2^(-1/2)", 6),
        (1, 2, 3, 6): parse_expression("1/4*x2^(-3/2)", 6),
    })
    assert ext_d(w1) == expected
    # the pair's wedge is the induced volume 2 sqrt(x2) dx^123456
    vol = wedge(w1, w2)
    assert vol == form(HALF, 6, {tuple(range(1, 7)): parse_expression("2*x2^(1/2)", 6)})


def test_split_pointwise_exact():
    w = catalog.omega_f("x2")
    p = [0, 1, 0, 0, 0, 0]
    w1, w2 = split_product(w, point=p)
    we = w.eval_at(p)
    assert w1 + w2 == we
    assert wedge(w1, w1).is_zero and wedge(w2, w2).is_zero
    # at x2 = 1 the alpha-product formulas evaluate with sqrt(x2) = 1
    sym1, sym2 = split_product(w)
    assert w1 == sym1.eval_at(p)
    assert w2 == sym2.eval_at(p)


def test_split_wrong_type():
    with pytest.raises(WrongType):
        split_product(catalog.complex6())


def test_split_pointwise_evaluates_the_form_first():
    w = form(HALF, 3, {(1, 2, 3): "x2^(1/2)", (4, 5, 6): 1})
    # sqrt(x2) at x2 = 2 fails in the evaluation, before any trace is taken
    with pytest.raises(IrrationalValue):
        split_product(w, point=[0, 2, 0, 0, 0, 0])
    p = [0, 4, 0, 0, 0, 0]
    assert split_product(w, point=p) == split_product(w.eval_at(p))


@pytest.mark.parametrize("w,p,sign", [
    (catalog.complex6(), ORIGIN6, "-"),
    (catalog.omega_f("x2", chart(6)), [0, -1, 0, 0, 0, 0], "-"),
    (form(C6, 3, {(1, 2, 3): 1}), ORIGIN6, "0"),
], ids=["complex6", "f=x2 at x2=-1", "dx123"])
def test_split_pointwise_rejects_a_trace_that_is_not_positive(w, p, sign):
    with pytest.raises(WrongType, match=f"trace sign is {sign}, not positive"):
        split_product(w, point=p)


def test_split_pointwise_irrational_scale():
    from plectic.errors import IrrationalScale

    w = catalog.omega_f("x2")
    with pytest.raises(IrrationalScale):
        split_product(w, point=[0, 2, 0, 0, 0, 0])  # sqrt(8) leaves Q


def test_three_disjoint_parts_are_each_decomposable():
    c9 = chart(9)
    parts = [
        form(c9, 3, {(1, 2, 3): 1}),
        form(c9, 3, {(4, 5, 6): 1}),
        form(c9, 3, {(7, 8, 9): 1}),
    ]
    for p in parts:
        assert classify._is_decomposable(p)
        assert ext_d(p).is_zero
    assert not classify._is_decomposable(parts[0] + parts[1])
    assert not classify._is_decomposable(parts[0] + parts[1] + parts[2])


def test_split_tie_break_swaps_pair_only():
    w = catalog.omega_f("x2")
    w1, w2 = split_product(w)
    lead = sorted(set(w1.coeffs) | set(w2.coeffs))
    for key in lead:
        a = w1.coeffs.get(key)
        b = w2.coeffs.get(key)
        if (a is None) != (b is None) or (a is not None and not (a == b)):
            diff = (a or RationalExpr.const(6, 0)) - (b or RationalExpr.const(6, 0))
            assert diff.num.leading_coeff() > 0
            break


SPLIT_FAMILY = ("1", "x2", "x2^(1/2)", "1/x2", "x2^2")


def _sign_flip(w, rng, scale):
    """scale * S^* w for a seeded sign flip S of the coordinates other than x2."""
    signs = [1 if i == 2 else rng.choice((1, -1)) for i in range(1, 7)]
    return form(w.chart, 3, {
        idx: c * RationalExpr.const(6, scale * signs[idx[0] - 1] * signs[idx[1] - 1]
                                    * signs[idx[2] - 1])
        for idx, c in w.coeffs.items()})


def _j_and_scale(w):
    """J and s = sqrt(trace(J^2)/6), as ``split_product`` takes them."""
    J = hitchin_endomorphism(w, standard_volume(w.chart))
    t = _trace_sq(J.matrix, RationalExpr.const(6, 0))
    return J, classify._sqrt_rational_expr(t / RationalExpr.const(6, 6))


def test_split_matches_projector_reference():
    from split_reference import reference_derivation_action, reference_split

    rng = random.Random(1811)
    forms = [catalog.omega_f(f) for f in SPLIT_FAMILY] + [catalog.product6()]
    forms += [_sign_flip(w, rng, scale) for w in forms for scale in (1, -2, Q(1, 3))]
    for w in forms:
        J, s = _j_and_scale(w)
        assert classify._derivation_action(J, w) == reference_derivation_action(J, w), w
        p1, p2 = split_product(w)
        assert (p1, p2) == reference_split(w, J, s), w
        assert p1 + p2 == w
    for f, x2 in (("x2", 1), ("x2", 4), ("x2^(1/2)", 16), ("1/x2", Q(1, 4)), ("x2^2", 3)):
        p = [Q(1, 2), x2, -1, 0, 2, Q(-3, 5)]
        we = catalog.omega_f(f).eval_at(p)
        parts = split_product(catalog.omega_f(f), point=p)
        assert parts == reference_split(we, *_j_and_scale(we))
        assert parts[0] + parts[1] == we


def test_split_of_linear_pullbacks_is_the_pulled_back_pair():
    """Ground truth owing nothing to either split: M^* product6 splits into
    M^* dx123 and M^* dx456.  J(M^* w) = det(M) M^-1 J(w) M, and J.w is
    3 (dx123 - dx456) for product6, so J.w of the pullback is
    3 det(M) (M^* dx123 - M^* dx456)."""
    rng = random.Random(1812)
    a, b = form(C6, 3, {(1, 2, 3): 1}), form(C6, 3, {(4, 5, 6): 1})
    checked = 0
    while checked < 32:
        M = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)]
        dm = det(M)
        if not dm:
            continue
        w = constant_linear_pullback(catalog.product6(), M)
        ma, mb = constant_linear_pullback(a, M), constant_linear_pullback(b, M)
        J = hitchin_endomorphism(w, standard_volume(C6))
        assert classify._derivation_action(J, w) == (ma - mb).scale(3 * dm)
        w1, w2 = split_product(w)
        assert {w1, w2} == {ma, mb}
        checked += 1


def test_decomposability_in_even_and_odd_degree():
    c4, c5 = chart(4), chart(5)
    dx12, dx34 = form(c4, 2, {(1, 2): 1}), form(c4, 2, {(3, 4): 1})
    assert classify._is_decomposable(dx12) and classify._is_decomposable(dx34)
    assert not classify._is_decomposable(dx12 + dx34)
    dx123, dx145 = form(c5, 3, {(1, 2, 3): 1}), form(c5, 3, {(1, 4, 5): 1})
    odd = dx123 + dx145
    assert wedge(odd, odd).is_zero  # only the contraction rank (5, not 3) rejects it
    assert classify._is_decomposable(dx123) and classify._is_decomposable(dx145)
    assert not classify._is_decomposable(odd)


# -- almost-complex structures ----------------------------------------------------


def test_extract_acs_dim6():
    J = extract_acs(catalog.complex6())
    expected = {(1, 2): -1, (2, 1): 1, (3, 4): -1, (4, 3): 1, (5, 6): -1, (6, 5): 1}
    for i in range(1, 7):
        for j in range(1, 7):
            want = expected.get((i, j), 0)
            assert J.matrix[i - 1][j - 1] == want, (i, j)
    # defining compatibility identity holds for all pairs
    w = catalog.complex6()
    for i in range(1, 7):
        for j in range(1, 7):
            u = coordinate_vector(C6, i)
            v = coordinate_vector(C6, j)
            lhs = interior(J.apply(u), interior(v, w))
            rhs = interior(u, interior(J.apply(v), w))
            assert lhs == rhs


def test_extract_acs_dim8():
    w = catalog.complex_volume_re(4)
    J = extract_acs(w)
    c8 = w.chart
    minus_one = RationalExpr.const(8, -1)
    assert J.square() == EndField.identity(c8).scale(minus_one)
    for k in range(1, 5):
        assert J.matrix[2 * k - 1][2 * k - 2] == 1
        assert J.matrix[2 * k - 2][2 * k - 1] == -1


def test_extract_acs_wrong_type():
    with pytest.raises(WrongType):
        extract_acs(catalog.product6())


def _disguised_volume(m, rng):
    """c * S^* Re(dz1^..^dzm) for a seeded sign flip S and scale c."""
    w, d = catalog.complex_volume_re(m), 2 * m
    signs = [rng.choice((1, -1)) for _ in range(d)]
    c = Q(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 5))
    return form(w.chart, m, {idx: v * RationalExpr.const(d, c * prod(signs[i - 1] for i in idx))
                             for idx, v in w.coeffs.items()})


def _scaled_volume(m, f):
    """f * Re(dz1^..^dzm) on the chart where every coordinate is positive."""
    w, d = catalog.complex_volume_re(m), 2 * m
    f = parse_expression(f, d)
    return form(chart(d, positive=range(1, d + 1)), m,
                {idx: v * f for idx, v in w.coeffs.items()})


def test_extract_acs_rows_match_the_dense_reference(monkeypatch):
    """The kernel gets the dense reference rows without their zero entries,
    in the same order, and J prints as it does from the dense rows."""
    from acs_reference import reference_rows

    rng = random.Random(2201)
    forms = [_disguised_volume(m, rng) for m in (3, 4) for _ in range(3)]
    forms += [_scaled_volume(3, f) for f in ("x1", "x2^2", "3*x1*x4^(1/2)")]
    forms.append(_scaled_volume(4, "x1"))
    kernel = linalg.nullspace
    for w in forms:
        dense = reference_rows(w)
        seen = []
        monkeypatch.setattr(linalg, "nullspace",
                            lambda rows, ncols=None: seen.append((rows, ncols)) or kernel(rows, ncols))
        J = extract_acs(w)
        monkeypatch.setattr(linalg, "nullspace", lambda rows, ncols=None: kernel(dense))
        J_dense = extract_acs(w)
        monkeypatch.undo()
        ((rows, ncols),) = seen
        want = [{j: v for j, v in enumerate(row) if v} for row in dense]
        assert ncols == w.chart.dim ** 2 and len(rows) == len(want)
        assert rows == want and str(rows) == str(want)
        assert str(J.matrix) == str(J_dense.matrix)


def test_nijenhuis_constant_j_vanishes():
    J = extract_acs(catalog.complex6())
    assert nijenhuis(J).integrable


def test_nijenhuis_nonintegrable_example():
    c4 = chart(4)
    x2 = parse_expression("x2", 4)
    rows = [
        [0, -1, x2, 0],
        [1, 0, 0, -x2],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]
    J = EndField(c4, rows)
    rep = nijenhuis(J)
    assert not rep.integrable
    assert rep.values[(3, 4)] == multivec(c4, 1, {(1,): "x2"})
    # oracle: direct bracket computation
    cols = [J.column_field(i) for i in range(1, 5)]
    e3, e4 = coordinate_vector(c4, 3), coordinate_vector(c4, 4)
    manual = vf_bracket(cols[2], cols[3]) - J.apply(vf_bracket(cols[2], e4)) \
        - J.apply(vf_bracket(e3, cols[3])) - vf_bracket(e3, e4)
    assert manual == rep.values[(3, 4)]


def test_nijenhuis_requires_acs():
    with pytest.raises(NotAlmostComplex):
        nijenhuis(EndField.identity(chart(4)))


def _rand_quotient(rng, dim, dens=None):
    """A seeded coefficient: a polynomial, a quotient by a polynomial (one of
    ``dens`` if given, so that sums meet equal denominators), or an
    uncancelled p/p, whose partials are zero."""
    num, den = rand_poly(rng, dim), rng.choice(dens) if dens else rand_poly(rng, dim)
    kind = rng.randrange(4)
    if kind == 0 or not den:
        return num
    if kind == 1:
        return RationalExpr(den.num, den.num)
    return RationalExpr(num.num * den.num if kind == 2 else num.num, den.num)


def _rand_field(rng, ch, dens=None):
    keys = rng.sample(range(1, ch.dim + 1), rng.randint(1, ch.dim))
    return multivec(ch, 1, {(k,): _rand_quotient(rng, ch.dim, dens) for k in keys})


def _complex_pullback(rng):
    """omega_f(f) for a negative f, pulled back along a triangular map with
    x2 -> a x2 (a a square) and constant diagonal, so that sqrt(-6 / trace(J^2))
    stays exact; returns (J normalized to J^2 = -I, or None)."""
    a = rng.choice([1, 4, Q(1, 4), 9])
    order = [2, 1, 3, 4, 5, 6]
    comps = [None] * 6
    for pos, i in enumerate(order):
        terms = [f"{a}*x2" if i == 2 else f"{rng.choice([1, -1, 2])}*x{i}"]
        for _ in range(rng.randint(0, 2) if pos else 0):
            j, k = rng.choice(order[:pos]), rng.choice(order[:pos])
            terms.append(f"{rng.randint(-2, 2)}*x{j}*x{k}")
        comps[i - 1] = parse_expression(" + ".join(terms), 6)
    f = rng.choice(("-1", "-x2", "-x2^2", "-1/x2", "-4*x2^3", "-x2^(1/2)"))
    w = pullback(SmoothMap(HALF, HALF, comps), catalog.omega_f(f))
    J = hitchin_endomorphism(w, standard_volume(HALF))
    t = _trace_sq(J.matrix, RationalExpr.const(6, 0))
    try:
        return J.scale(classify._sqrt_rational_expr(RationalExpr.const(6, -6) / t))
    except IrrationalScale:
        return None


def test_vector_field_layer_matches_the_dense_reference():
    """Brackets, J.X and Nijenhuis values print exactly as the dense sums do,
    with the same component order."""
    from field_reference import reference_apply, reference_bracket, reference_nijenhuis

    rng = random.Random(4240)
    for _ in range(150):
        ch = chart(rng.randint(2, 6))
        dens = [rand_poly(rng, ch.dim) for _ in range(2)] if rng.random() < 0.5 else None
        X, Y = _rand_field(rng, ch, dens), _rand_field(rng, ch, dens)
        got, want = vf_bracket(X, Y), reference_bracket(X, Y)
        assert repr(got) == repr(want) and list(got.coeffs) == list(want.coeffs), (X, Y)
        J = EndField(ch, tuple(tuple(_rand_quotient(rng, ch.dim, dens) if rng.random() < 0.6
                                     else RationalExpr.const(ch.dim, 0)
                                     for _ in range(ch.dim)) for _ in range(ch.dim)))
        got, want = J.apply(X), reference_apply(J, X)
        assert repr(got) == repr(want) and list(got.coeffs) == list(want.coeffs), (J, X)
    witnesses = 0
    for _ in range(30):
        J = _complex_pullback(rng)
        if J is not None:
            got = nijenhuis(J).values
            assert repr(got) == repr(reference_nijenhuis(J))
            witnesses += bool(got)
    assert witnesses >= 15


def test_endfield_equality_is_by_value():
    """Record equality compares the entries by value, as elementwise == does:
    an entry times (x1 + 1)/(x1 + 1) prints differently and is equal."""
    rng = random.Random(4241)
    c3 = chart(3)
    unit = parse_expression("(x1 + 1)/(x1 + 1)", 3)
    for _ in range(20):
        rows = [[_rand_quotient(rng, 3) for _ in range(3)] for _ in range(3)]
        J = EndField(c3, rows)
        K = EndField(c3, [[v * unit for v in row] for row in rows])
        assert str(J.matrix) != str(K.matrix) and J == K and hash(J) == hash(K)
        rows[rng.randrange(3)][rng.randrange(3)] += 1
        assert J != EndField(c3, rows)


def test_endfield_coerces_its_entries():
    """The one constructor makes every entry a RationalExpr on the chart, so
    a column field and the trace of a matrix of ints are RationalExprs too."""
    J = EndField(chart(2), ((1, 0), (0, 1)))
    assert all(type(v) is RationalExpr for row in J.matrix for v in row)
    assert J == EndField.identity(chart(2))
    assert all(type(c) is RationalExpr for c in J.column_field(1).coeffs.values())
    assert type(J.trace()) is RationalExpr and J.trace() == 2


# -- involutivity ------------------------------------------------------------------


def test_involutive_coordinate_frame():
    c3 = chart(3)
    assert involutive([coordinate_vector(c3, 1), coordinate_vector(c3, 2)])


def test_involutive_witness():
    c3 = chart(3)
    X = coordinate_vector(c3, 1)
    Y = multivec(c3, 1, {(2,): 1, (3,): "x1"})
    rep = involutive([X, Y])
    assert not rep
    assert rep.witness_bracket == multivec(c3, 1, {(3,): 1})


def test_involutive_dependent_frame():
    c3 = chart(3)
    X = coordinate_vector(c3, 1)
    with pytest.raises(DependentFrame):
        involutive([X, X.scale(2)])


def test_both_frame_checks_reject_the_same_frames():
    """A bivector or a frame on two charts is a ShapeError in the
    standard-subspace check too, not DependentFrame; an empty frame is
    DependentFrame in both."""
    c3 = chart(3)
    w = form(c3, 2, {(1, 2): 1})
    bivector = multivec(c3, 2, {(1, 2): 1})
    mixed = [coordinate_vector(c3, 1), coordinate_vector(chart(4), 2)]
    for frame in ([bivector], [coordinate_vector(c3, 3), bivector], mixed):
        with pytest.raises(ShapeError, match="vector fields on one chart"):
            involutive(frame)
        with pytest.raises(ShapeError, match="vector fields on one chart"):
            verify_standard_subspace(w, frame)
    with pytest.raises(DependentFrame):
        involutive([])
    with pytest.raises(DependentFrame):
        verify_standard_subspace(w, [])


def test_tangent_type_kernel_frame_involutive():
    w = catalog.tangent6()
    J = hitchin_endomorphism(w, standard_volume(C6))
    from plectic.linalg import nullspace

    null = nullspace([list(r) for r in J.matrix])
    frame = [
        multivec(C6, 1, {(k + 1,): v[k] for k in range(6) if v[k]})
        for v in null
    ]
    assert len(frame) == 3
    assert set(k for f in frame for k in f.coeffs) == {(1,), (2,), (3,)}
    assert involutive(frame)


# -- flatness reports ---------------------------------------------------------------


def test_flatness_nonflat_family():
    rep = flatness_report(catalog.omega_f("x2"))
    assert rep.linear_type == PRODUCT
    assert rep.flat == NONFLAT
    assert rep.witness is not None and not rep.witness.is_zero


def test_flatness_flat_family():
    rep = flatness_report(catalog.omega_f(1))
    assert rep.linear_type == PRODUCT
    assert rep.flat == FLAT


def test_flatness_nonconstant_type():
    w = catalog.omega_f("x2", chart(6))  # x2 unconstrained: sign changes
    rep = flatness_report(w)
    assert rep.linear_type == NONCONSTANT
    assert len(rep.points) == 2


def test_flatness_normal_forms_flat():
    for w in (catalog.product6(), catalog.complex6(), catalog.tangent6()):
        rep = flatness_report(w)
        assert rep.flat == FLAT, rep


@pytest.mark.parametrize("g", ["x1", "x1^3", "x1*x2"])
def test_no_flat_from_a_sampled_trace_sign(g):
    """g dx123 + dx456 splits into closed parts, but its trace 6 g^2 vanishes
    where g does, which the sign samples never meet, and classify6 finds
    the form degenerate there: the report is Undetermined, not Flat."""
    w = form(C6, 3, {(1, 2, 3): g, (4, 5, 6): 1})
    rep = flatness_report(w)
    assert (rep.linear_type, rep.trace_sign, rep.flat) == (PRODUCT, "+", UNDETERMINED)
    assert rep.notes == ["trace sign decided by rational sampling",
                         "Flat needs a certified trace sign"]
    assert classify6(w, ORIGIN6).linear_type == DEGENERATE


@pytest.mark.parametrize("name,linear_type", [
    ("product6", PRODUCT), ("complex6", COMPLEX), ("tangent6", TANGENT)])
def test_every_flat_verdict_needs_a_certified_sign(monkeypatch, name, linear_type):
    """Each type's Flat becomes Undetermined when the same sign is sampled."""
    certified = sign_on_chart
    monkeypatch.setattr(classify, "sign_on_chart",
                        lambda expr, ch: SignReport(certified(expr, ch).sign, False))
    rep = flatness_report(getattr(catalog, name)())
    assert (rep.linear_type, rep.flat) == (linear_type, UNDETERMINED)
    assert rep.notes[-1] == "Flat needs a certified trace sign"


def test_flatness_perturbed_product_flips():
    # constant product form: both parts closed, flat
    w1, w2 = split_product(catalog.product6())
    assert ext_d(w1).is_zero and ext_d(w2).is_zero
    # perturbing the family coefficient makes the parts non-closed: the
    # verdict flips even though the total form stays closed (f = x2^2 keeps
    # the scale rational on an unconstrained chart)
    w = catalog.omega_f("x2^2", chart(6))
    assert ext_d(w).is_zero
    rep = flatness_report(w)
    assert rep.linear_type == PRODUCT
    assert rep.flat == NONFLAT
    p1, p2 = split_product(w)
    assert not ext_d(p1).is_zero and not ext_d(p2).is_zero


@pytest.mark.parametrize("w", [
    catalog.omega_f(1),
    catalog.omega_f("x2"),
    catalog.omega_f("-x2"),
    catalog.omega_f(2),
    catalog.tangent6(),
], ids=["f=1", "f=x2", "f=-x2", "f=2", "tangent6"])
def test_flatness_report_builds_j_and_checks_closedness_once(monkeypatch, w):
    calls = []

    def count(name):
        original = getattr(classify, name)

        def counting(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(classify, name, counting)

    count("hitchin_endomorphism")
    count("_require_closed_3form_dim6")
    flatness_report(w)
    assert sorted(calls) == ["_require_closed_3form_dim6", "hitchin_endomorphism"]


def test_flatness_report_of_a_degenerate_form():
    # dx123 has trace(J^2) = 0 and the kernel span(e4, e5, e6)
    rep = flatness_report(form(C6, 3, {(1, 2, 3): 1}))
    assert (rep.linear_type, rep.trace_sign, rep.flat) == (DEGENERATE, "0", "Undetermined")
    assert rep.notes == ["form is degenerate"]


def test_flatness_report_of_a_tangent_form_with_a_non_involutive_kernel():
    # w = t1 ^ b2 ^ b3 + t2 ^ b3 ^ b1 + t3 ^ b1 ^ b2 with t_a = dx_a,
    # b1 = dx4 + x2 dx3, b2 = dx5, b3 = dx6 is closed and of tangent type; the
    # kernel of J is ker(b1, b2, b3) = span(e1, e2, e3 - x2 e4), and
    # [e2, e3 - x2 e4] = -e4 leaves it
    w = form(C6, 3, {(1, 5, 6): 1, (2, 4, 6): -1, (2, 3, 6): "-x2", (3, 4, 5): 1})
    assert ext_d(w).is_zero
    rep = flatness_report(w)
    assert (rep.linear_type, rep.trace_sign, rep.flat) == (TANGENT, "0", NONFLAT)
    assert rep.witness_kind.startswith("bracket(")
    bracket = rep.witness
    b1 = form(C6, 1, {(4,): 1, (3,): "x2"})
    assert interior(bracket, b1) or any(bracket.coeffs.get((k,)) for k in (5, 6))


def test_flatness_undetermined_irrational_scale():
    # f = 2 gives lambda = 8: sqrt leaves the rationals, so the report is
    # Undetermined and says why; no float split stands in for the exact one
    rep = flatness_report(catalog.omega_f(2))
    assert rep.linear_type == PRODUCT
    assert rep.flat == "Undetermined"
    assert any(note.startswith("exact split unavailable") for note in rep.notes)
    assert not any("float" in note or "1e-9" in note for note in rep.notes)


def test_sign_on_chart_monomial_rule():
    t = parse_expression("24*x2", 6)
    s = sign_on_chart(RationalExpr.const(6, 1) * t, HALF)
    assert s.sign == "+" and s.certified
    s2 = sign_on_chart(t, chart(6))
    assert s2.sign == "mixed" and len(s2.witnesses) == 2
    # without a certificate: one witness of a sign that never changed, none
    # when every sample is a root
    s3 = sign_on_chart(-parse_expression("x1^2 + 1", 6), chart(6))
    assert s3.sign == "-" and not s3.certified and len(s3.witnesses) == 1
    assert s3.witnesses[0][1] < 0
    x2 = parse_expression("x2", 6)
    roots = prod((x2 - v for v in classify._SAMPLE_POOL_POS), start=RationalExpr.const(6, 1))
    assert sign_on_chart(roots, HALF) == ("0", False, ())


def test_sign_on_chart_lets_faults_through(monkeypatch):
    # only deliberate errors (a vanishing denominator, ...) skip a sample; a
    # fault in the arithmetic must surface instead of reading as a sign
    def broken(self, point):
        raise TypeError("injected fault")

    monkeypatch.setattr(RationalExpr, "eval", broken)
    with pytest.raises(TypeError, match="injected fault"):
        sign_on_chart(parse_expression("x1 - x2", 6), chart(6))


def test_non_real_coefficients_raise_shape_error():
    """A non-real coefficient ends in the ShapeError that the pointwise
    trichotomy raises, in the split and the flatness report as well; and
    sign_on_chart rejects a non-real value in each of its branches."""
    i = GaussianRational(0, 1)
    w = form(C6, 3, {(1, 2, 3): i, (4, 5, 6): 1})
    calls = [lambda: classify6(w, ORIGIN6), lambda: nondegenerate(w, ORIGIN6),
             lambda: split_product(w), lambda: split_product(w, ORIGIN6),
             lambda: flatness_report(w)]
    for call in calls:
        with pytest.raises(ShapeError, match=r"^not an exact rational: i$"):
            call()
    x1, positive = parse_expression("x1", 6), chart(6, positive=[1])
    for expr, ch in ((RationalExpr.const(6, i), C6), (x1 * i, positive), (x1 + i, C6)):
        with pytest.raises(ShapeError, match="not an exact rational"):
            sign_on_chart(expr, ch)
    # a real value held as a GaussianRational has a sign in each branch
    real = GaussianRational(-2)
    assert sign_on_chart(RationalExpr.const(6, real), C6) == ("-", True, ())
    assert sign_on_chart(x1 * real, positive) == ("-", True, ())
    assert sign_on_chart(x1 * x1 + real * real, C6).sign == "+"


# -- standard subspaces ---------------------------------------------------------------


def test_standard_subspace_multiphase():
    model = multiphase_forms(2, 1)
    ch = model.chart
    W = [
        coordinate_vector(ch, model.p_total_index),
        coordinate_vector(ch, model.p_index(1, 1)),
        coordinate_vector(ch, model.p_index(2, 1)),
    ]
    assert verify_standard_subspace(model.omega, W)


def test_standard_subspace_bad_pair():
    model = multiphase_forms(2, 1)
    ch = model.chart
    W = [
        coordinate_vector(ch, model.p_total_index),
        coordinate_vector(ch, model.q_index(1)),
        coordinate_vector(ch, model.p_index(1, 1)),
    ]
    rep = verify_standard_subspace(model.omega, W)
    assert not rep and not rep.pairwise_isotropic


def test_standard_subspace_volume_counterexample():
    c3 = chart(3)
    w = form(c3, 3, {(1, 2, 3): 1})
    frame = [coordinate_vector(c3, i) for i in (1, 2, 3)]
    assert not verify_standard_subspace(w, frame)


# -- symmetry fields of the half-space family ------------------------------------------


def test_translations_preserve_family():
    from plectic.exterior import lie_derivative

    w = catalog.omega_f("x2")
    for i in (1, 3, 4, 5, 6):
        assert lie_derivative(coordinate_vector(HALF, i), w).is_zero


def test_scaling_symmetry_from_weight_equations():
    # derive a weighted Euler field preserving omega^f (weights solve the
    # four weight equations); independent oracle for lie_derivative
    from plectic.exterior import lie_derivative

    w = catalog.omega_f("x2")
    weights = {1: Q(3, 2), 2: Q(1), 3: Q(0), 4: Q(-1, 2), 5: Q(-3, 2), 6: Q(-1)}
    coeffs = {}
    for i, wt in weights.items():
        if wt:
            coeffs[(i,)] = RationalExpr.variable(6, i) * RationalExpr.const(6, wt)
    E = multivec(HALF, 1, coeffs)
    assert lie_derivative(E, w).is_zero
